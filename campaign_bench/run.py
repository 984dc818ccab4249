#!/usr/bin/env python3
"""Builds and runs the campaign benchmark.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload predict|serve|combine|defect \
        --seed N --seconds S --trace 0|1 [--key=value ...]

The first run configures and builds campaign_bench/ (which builds the
oisa libraries from the repository's sources) in Release under the build
root: $CARGO_TARGET_DIR when set, else .bench_build. Later runs only check
the build is current. Build output goes to stderr; stdout carries the
benchmark's own report, whose last line is the result JSON. Extra
--key=value arguments are passed through to the benchmark binary.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_root):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "experiments" / "runner.h"
    ).is_file():
        fail(f"no oisa source tree at {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = build_root / "campaign_bench"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={PACKAGE}\n" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(build_dir)  # configured for another source tree
    if not cache.is_file():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(build_dir), "--target", "campaign_bench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "campaign_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=["predict", "serve", "combine", "defect"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = parser.parse_known_args()
    for token in extra:
        if not token.startswith("--") or "=" not in token:
            fail(f"unexpected argument {token!r} (use --key=value)")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root)

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}",
               f"--model-dir={build_root / 'models' / args.workload}"]
    if args.trace:
        trace = build_root / "traces" / f"{args.workload}-seed{args.seed}.json"
        command.append(f"--trace-out={trace}")
    try:
        result = subprocess.run(command + extra, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
