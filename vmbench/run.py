#!/usr/bin/env python3
"""Build and run the vmcons benchmark from the root of a source checkout.

    python3 vmbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 vmbench/run.py --selftest

The benchmark is compiled from the checkout's src/ (Release, the
repository's own flags) into $CARGO_TARGET_DIR/vmbench, default
.bench_build/vmbench. Each run works in a fresh directory under the build
directory and removes it at exit; a traced run (--trace 1) leaves its spans
in vmbench-trace-<workload>.json beside it. The last line of standard output
is the result JSON printed by the vmbench binary.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_batch", "stream_ckpt", "sharded_2w", "single_plan")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"vmbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no vmcons sources beside the benchmark (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "vmbench",
                  "-j", jobs])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                die("build failed, see " + log_path)
    return os.path.join(build_dir, "vmbench")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over src/ (paths and contents): identifies the measured code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        die("--workload is required")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(os.path.join(build_root, "vmbench"))
    workdir = os.path.join(build_root, "vmbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.selftest:
            command = [binary, "--selftest", "--workdir", workdir]
        else:
            trace_out = os.path.join(build_root,
                                     f"vmbench-trace-{args.workload}.json")
            command = [binary, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--workdir", workdir, "--trace-out", trace_out,
                       "--git-rev", git_rev(), "--src-digest", src_digest()]
        sys.stdout.flush()
        try:
            code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            die(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
