#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <paper_study|daemon_uptime|ingest_socket>
                             --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (Release) into .bench_build/ under the
checkout on first use, then runs the benchmark binary, whose stdout ends
with one JSON result line. Everything it writes stays under .bench_build/
(CARGO_TARGET_DIR names another directory). Exits non-zero, without a
result line, when the build fails; the binary's own exit code otherwise.
"""
import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(root, build_dir):
    """Configure and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "vmcw_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed ({' '.join(step)}); "
                         f"see {log_path}")
    return os.path.join(cmake_dir, "vmcw_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_study", "daemon_uptime", "ingest_socket"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.abspath(build_dir), root)
    binary = build(root, build_dir)
    # A terminated run.py must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with subprocess.Popen(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", os.path.join(build_dir, "run")],
            stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
