#!/usr/bin/env python3
"""Build and run the `ftnc run` benchmark (perfbench/bench.ml).

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload saxpy_1m --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune inside the tree, then runs it on one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is non-zero,
and no result is printed, when the tree cannot be built or any check of
the benchmark fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("saxpy_1m", "compile_k32", "queue_2k")
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# The sources that decide what the benchmark measures; numbers that must
# repeat across runs are kept per digest of these.
SOURCE_DIRS = ("lib", "perfbench")


def terminate(signum, _frame):
    # Unwind through run(), which kills and reaps the child.
    raise SystemExit(128 + signum)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run a child to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s did not finish within %d s" % (cmd[0], timeout))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode() + b"\0")
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    signal.signal(signal.SIGTERM, terminate)
    if a.seconds < 1:
        die("--seconds must be at least 1")
    for needed in ("dune-project", os.path.join("lib", "core"), "perfbench"):
        if not os.path.exists(needed):
            die("run from the root of the source tree: %s is missing" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if status != 0:
        die("build failed (dune exit %d)" % status)

    record_dir = os.path.join(".bench_build", "perfbench", source_digest())
    sys.stdout.flush()
    status = run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--record-dir", record_dir],
        a.seconds + RUN_SLACK_S)
    sys.exit(status)


if __name__ == "__main__":
    main()
