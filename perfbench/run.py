#!/usr/bin/env python3
"""Build and run the round benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/bench.exe from
source with dune, runs it once and relays its output: the last line of
stdout is the result object.  Build output goes to stderr.  When the
build or the run fails it exits non-zero; a failed build prints no
result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune spawns compilers) and wait for it, then return None."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: no dune-project in the working directory; "
                 "run from the repository root")
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = run(["dune", "build", "--root", ".", "--display", "quiet",
                 "./perfbench/bench.exe"],
                BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if built is None or built[0] != 0:
        sys.exit("run.py: building perfbench/bench.exe failed")

    ran = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--nproc", str(len(os.sched_getaffinity(0)))],
              RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if ran is None:
        sys.exit(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s")
    code, out = ran
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: the benchmark printed no result object")


if __name__ == "__main__":
    main()
