#!/usr/bin/env python3
"""Builds and runs the simulator's host-performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
simulator libraries from src/ plus the benchmark into .bench_build/perfbench
(CMake, Ninja when available); later calls only rebuild what changed. Build
output goes to stderr. The benchmark's report goes to stdout, ending with one
JSON line; its metric names are checked against BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the simulator sources (src/) are missing")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if argv[:1] == ["--selftest"]:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode

    proc = subprocess.run([str(BUILD / "perfbench"), *argv],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    reported = set(json.loads(lines[-1])["metrics"])
    declared = declared_metrics(trace)
    if reported != declared:
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(declared - reported)}, "
                 f"undeclared {sorted(reported - declared)}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
