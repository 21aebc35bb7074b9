#!/usr/bin/env python3
"""Build the benchmark, its host probe and the pfld daemon from source, then run one workload.

    python3 perfbench/run.py --workload sim-large|sim-observed|pfld-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the host block and every metric with its unit and sample count. The
exit code is 0 only when every output matched its reference.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench/perfbench.exe", "perfbench/hostprobe.exe", "bin/pfld.exe"]
NEEDED = ["dune-project", "lib", "bin/pfld.ml", "examples/programs", "perfbench/dune"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def stop_group(pgid):
    """Kill whatever is left of the process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    stop_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim-large", "sim-observed", "pfld-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("not the root of a checkout (missing " + ", ".join(missing) + ")")

    # --cache=disabled: build only inside the checkout, not in a shared cache
    code, _ = run_group(["dune", "build", "--root", ".", "--display", "quiet",
                         "--cache=disabled"] + TARGETS,
                        BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail("build failed")

    if args.workload.startswith("sim-"):
        # The sim workloads run one simulation at a time on one thread.
        # Pinned to one CPU, with the host probe children it starts, their
        # pass-to-pass spread fell from 13-16% to 2% on a 2-core host:
        # unpinned, the process and its probes migrate between cores.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cmd = ["_build/default/perfbench/perfbench.exe", "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--pfld", "_build/default/bin/pfld.exe",
           "--commit", commit()]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    out = out.decode()
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        fail(f"the benchmark printed no result (exit {code})")
    sys.stdout.write(out)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
