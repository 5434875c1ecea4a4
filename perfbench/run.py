#!/usr/bin/env python3
"""Builds and runs the engine benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload table4|whatif|scenarios|verify \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source tree. It configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the engine
from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs the
faurebench binary in this process's place. The binary prints the result
as the last line of standard output and exits 1 when an answer check
failed. A failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "faurebench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no engine sources at %s/src\n" % ROOT)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "faurebench")
    if not build(build_dir):
        return 2
    sys.stdout.flush()
    binary = os.path.join(build_dir, "faurebench")
    return subprocess.call([binary] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
