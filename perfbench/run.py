#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: bo-analytical, service-mix (see perfbench/README.md).
The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the checkout root); build output goes to
stderr. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bo-analytical", "service-mix")
BUILD_TYPE = "RelWithDebInfo"
# The program itself finishes well inside this; the guard only makes sure a
# hung run still ends (and is reaped) before the caller's limit.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve()


def source_id():
    """Git commit when available, plus a digest of the sources built."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    if shutil.which("git") and (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True, check=False)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return "git-%s.tree-%s" % (commit, digest.hexdigest()[:12])


def build():
    """Configure once, then (re)build the program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            fail("build step failed: " + " ".join(step))
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    program = build()
    workdir = build_root() / ("work-%d" % os.getpid())
    command = [str(program), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", str(workdir), "--source", source_id()]
    sys.stdout.flush()
    # A SIGTERM to this script must not orphan the program: turn it into
    # SystemExit so the cleanup below kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(command, cwd=str(ROOT))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
