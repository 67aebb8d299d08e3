#!/usr/bin/env python3
"""Build and run the llm4d host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload step_sweep|run_long|plan_worn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
calls rebuild only what changed. The last line of stdout is the result
JSON. An untraced run reports set-up time as the median over
SETUP_LAUNCHES launches: SETUP_LAUNCHES - 1 set-up-only launches, each
pinned to another CPU, plus the measured run itself. A traced run also
writes a Chrome trace-event file (open it in Perfetto) to
.bench_build/perfbench/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
BINARY = BUILD / "llm4d_perfbench"
SETUP_LAUNCHES = 5
# Every run must end within 180 s of its start (the build aside).
RUN_BUDGET_S = 170.0


def build():
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "llm4d_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)


def launch(args, extra, deadline, cpu=None):
    """Run the benchmark binary once, pinned to @cpu if given; return its
    stdout lines."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at-ns", str(time.monotonic_ns())] + extra
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pin,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["step_sweep", "run_long", "plan_worn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.json"
            lines = launch(args, ["--trace-file", str(trace_file)], deadline)
            result = json.loads(lines[-1])
        else:
            # Cores of a shared host differ in speed: take the set-up
            # samples on different ones.
            cpus = sorted(os.sched_getaffinity(0))
            setups = [json.loads(launch(args, ["--setup-only"], deadline,
                                        cpus[i % len(cpus)])[-1])["setup_s"]
                      for i in range(SETUP_LAUNCHES - 1)]
            lines = launch(args, [], deadline)
            result = json.loads(lines[-1])
            setup = result["metrics"]["setup_s"]
            setup["value"] = statistics.median(setups + [setup["value"]])
    except (OSError, RuntimeError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
