#!/usr/bin/env python3
"""Builds the lifecycle benchmark from source and runs one workload.

    python3 lifecycle_bench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first call configures and
compiles the program (src/) and the benchmark into
$CARGO_TARGET_DIR/lifecycle_bench (default .bench_build/lifecycle_bench);
later calls only rebuild what changed. Every argument goes to the
lifecycle_bench binary, whose last line of standard output is the JSON
result. Build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return "none(not-a-git-checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_step = ["cmake", "--build", build_dir, "--target", "lifecycle_bench",
                    "-j", jobs]
    if subprocess.run(compile_step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "lifecycle_bench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lifecycle_bench: no program sources at %s/src" % ROOT, file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        print("lifecycle_bench: cmake not found", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "lifecycle_bench"))
    if binary is None:
        print("lifecycle_bench: build failed", file=sys.stderr)
        return 2
    command = [binary] + argv
    if "--work-dir" not in argv:
        command += ["--work-dir", os.path.join(ROOT, ".bench_work")]
    if "--git-sha" not in argv:
        command += ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
