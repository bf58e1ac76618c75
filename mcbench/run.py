"""Monte Carlo tracking benchmark for phdfuse.

Runs one workload, a fixed Monte Carlo campaign of the bundled six-sensor,
40-step scenario through the public ``run_experiment``, and prints its
metrics; the last line of standard output is one JSON object.

    python3 mcbench/run.py --workload full_a6 --seed 0 --seconds 15 --trace 0
    python3 mcbench/run.py                  # every workload, one process each

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` instead runs the campaign once untraced and once with every
layer boundary wrapped, checks that both give bit-identical run records, and
prints the per-layer metrics.  Either way a checked pass runs first; a failed
check makes the command exit with status 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, as for every campaign; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from mcbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import phdfuse\n"
    "from phdfuse.scenario import build_scenario\n"
    "build_scenario()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds() -> float:
    """Median time, each in a fresh interpreter, to import phdfuse and build
    the scenario."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_workload(args) -> int:
    if not (SRC / "phdfuse" / "__init__.py").is_file():
        print(f"phdfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    # Importing here also compiles the package before setup is timed.
    from mcbench.campaign import Bench

    workload = WORKLOADS[args.workload]
    setup = None if args.trace else setup_seconds()
    bench = Bench(workload, args.seed)
    bench.checked_pass()
    if args.trace:
        metrics, tracer, traced_round = bench.traced()
        rounds = [traced_round]
        write_spans(tracer, OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        rounds = bench.measure(args.seconds)
        metrics = {"setup_s": (setup, "s"), **bench.end_to_end(rounds)}
    attempted = sum(len(records) for records, _ in rounds)
    failed = sum(not r.ok for records, _ in rounds for r in records)
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    correct = not bench.problems
    print(f"{workload.name}: master seed {bench.config.master_seed}, {len(rounds)} campaign(s) "
          f"of {workload.runs} runs, {attempted} runs attempted, {failed} failed, "
          f"checks {'passed' if correct else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(tracer, path: Path) -> None:
    """One JSON line per span: name, run, start, end, parent span index."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so its peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1] if done.returncode in (0, 1) else lines), flush=True)
        print(done.stderr, end="", file=sys.stderr, flush=True)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
