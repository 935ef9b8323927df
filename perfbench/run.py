#!/usr/bin/env python3
"""Builds xmlrdb and the benchmark program from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload query|serve|ingest --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/ and durable stores to a per-run directory
under .perfbench_run/, removed when the run ends. Build output goes to
stderr; stdout carries one line per metric, a context line, and as its last
line the JSON result. The exit status is the program's: 0 only when every
answer check passed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_ROOT = ROOT / ".perfbench_run"
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when the checkout is a git work tree, otherwise a
    digest of the sources the program is built from."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return None
    res = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        return None
    return BUILD_DIR / "xmlrdb_perfbench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["query", "serve", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"xmlrdb sources not found under {ROOT / 'src'}")
        return 2
    binary = build()
    if binary is None or not binary.is_file():
        log("build failed")
        return 2

    run_dir = RUN_ROOT / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--run-dir", str(run_dir),
           "--git-sha", source_id()]
    try:
        proc = subprocess.Popen(cmd)
        try:
            return proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
