#!/usr/bin/env python3
"""Builds and runs the treeagg benchmark.

    python3 perfbench/run.py --workload sim-big --seed 1 --seconds 10 --trace 0

Run from the repository root (any working directory works; paths are
resolved from this file). The first run configures and compiles the library
from ../src plus the `perfbench` binary into .bench_build/perfbench; later
runs only check that the build is up to date. The binary's stdout is
passed through, so the last line printed is its JSON result. Build output
goes to stderr. With --trace 1 a Chrome trace of the run is written to
.bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("sim-big", "net-seq", "net-read", "verify")
# A run measures for --seconds and then finishes its current round; a run
# still going after this long is stuck and is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def kill_session(sid):
    """Kills every process of session `sid` (ninja gives each compile job
    its own process group, so killing one group is not enough)."""
    for _ in range(10):
        alive = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
                if state != "Z" and os.getsid(int(entry)) == sid:
                    os.kill(int(entry), signal.SIGKILL)
                    alive.append(entry)
            except (OSError, IndexError):
                pass
        if not alive:
            return
        time.sleep(0.1)


def run(command, timeout=None, stdout=None):
    """Runs `command` in a session of its own and returns its exit code.

    Every process the command started (the compilers under cmake --build)
    is killed if the command outlives `timeout` or this script is
    interrupted. Returns None on timeout.
    """
    proc = subprocess.Popen(command, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            kill_session(proc.pid)
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("treeagg sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
           stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def provenance():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    # A SIGTERM ends this script through SystemExit, so run() still kills
    # what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", provenance()]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    code = run(command, timeout=RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: %s seed %d did not finish within %d s"
              % (args.workload, args.seed, RUN_TIMEOUT_S), file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
