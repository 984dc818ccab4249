#!/usr/bin/env python3
"""The campaign benchmark's own tests.

    check.py parity --bench B --fig7 F7 --fig9 F9 --fault FC --work-dir D
        At a small size, the rows the benchmark times must be byte-identical
        to the CSVs the product CLIs write at the same flags: fig7_abper
        (predict), fig7_abper --model-in (serve, whose set-up banks must
        also equal fig7_abper --model-out's byte for byte),
        fig9_error_combination (combine) and fault_coverage (defect).

    check.py self-test --bench B --spec BENCHMARK.json --work-dir D
        A tiny run of every workload in both modes: every metric the spec
        names is present, finite and tagged with the spec's unit, no cell
        fails, the traced run writes a loadable trace, and the benchmark
        refuses to report with OISA_FORCE_LANE_WIDTH set.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

SEED = 7
PARITY_SIZES = {
    "predict": ["--train-cycles=512", "--test-cycles=256", "--trees=3",
                "--depth=4"],
    "serve": ["--train-cycles=512", "--test-cycles=384", "--trees=3",
              "--depth=4"],
    "combine": ["--cycles=512"],
    "defect": ["--cycles=1024", "--timed-cycles=256", "--timed-faults=2"],
}
TINY_SIZES = ["--train-cycles=256", "--test-cycles=128", "--trees=2",
              "--depth=3", "--cycles=256", "--timed-cycles=128",
              "--timed-faults=1"]


def run(command, env=None):
    return subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=600)


def must_run(command):
    result = run(command)
    if result.returncode != 0:
        sys.exit(f"FAIL: {' '.join(command)} exited {result.returncode}\n"
                 f"{result.stdout}{result.stderr}")
    return result


def bench_command(args, workload, extra, seconds=0, traced=0):
    return [args.bench, f"--workload={workload}", f"--seed={SEED}",
            f"--seconds={seconds}", f"--trace={traced}",
            f"--model-dir={args.work_dir / 'models' / workload}"] + extra


def parity(args):
    clis = {"predict": args.fig7, "serve": args.fig7, "combine": args.fig9,
            "defect": args.fault}
    failures = []
    for workload, sizes in PARITY_SIZES.items():
        bench_csv = args.work_dir / f"bench_{workload}.csv"
        cli_csv = args.work_dir / f"cli_{workload}.csv"
        must_run(bench_command(args, workload,
                               sizes + [f"--csv-out={bench_csv}"]))
        cli = [clis[workload], f"--seed={SEED}", f"--csv={cli_csv}"] + sizes
        if workload == "serve":
            banks = args.work_dir / "models" / "serve" / "bank"
            cli.append(f"--model-in={banks}")
            # The set-up banks are the ones fig7_abper --model-out writes.
            cli_banks = args.work_dir / "cli_models" / "bank"
            cli_banks.parent.mkdir(parents=True, exist_ok=True)
            must_run([args.fig7, f"--seed={SEED}",
                      f"--model-out={cli_banks}"] + sizes)
            written = sorted(p.name for p in cli_banks.parent.iterdir())
            if not written:
                failures.append("serve: fig7_abper --model-out wrote no bank")
            for name in written:
                if (cli_banks.parent / name).read_bytes() != (
                        banks.parent / name).read_bytes():
                    failures.append(f"serve: bank {name} differs")
        must_run(cli)
        if bench_csv.read_bytes() != cli_csv.read_bytes():
            failures.append(f"{workload}: {bench_csv} != {cli_csv}")
        else:
            print(f"ok   {workload}: rows byte-identical to the CLI CSV")
    return failures


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(args):
    spec = json.loads(args.spec.read_text())
    failures = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        for traced, key in ((0, "end_to_end"), (1, "per_layer")):
            trace_file = args.work_dir / f"{workload}.trace.json"
            command = bench_command(args, workload, TINY_SIZES, seconds=1,
                                    traced=traced)
            if traced:
                command.append(f"--trace-out={trace_file}")
            result = run(command)
            where = f"{workload} --trace={traced}"
            if result.returncode != 0:
                failures.append(f"{where}: exit {result.returncode}: "
                                f"{result.stderr.strip()}")
                continue
            out = last_json(result.stdout)
            if out is None or set(out) != {"correct", "attempted", "failed",
                                           "metrics"}:
                failures.append(f"{where}: malformed result line")
                continue
            if out["correct"] is not True or out["failed"] != 0 or \
                    out["attempted"] < 1:
                failures.append(f"{where}: correct={out['correct']} "
                                f"failed={out['failed']}")
            if "failed_frac" not in result.stdout or not any(
                    line.split()[:2] == ["failed_frac", "0"]
                    for line in result.stdout.splitlines()):
                failures.append(f"{where}: failed_frac is not 0")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            metrics = out["metrics"]
            if set(metrics) != set(expected):
                failures.append(f"{where}: metrics {sorted(metrics)} != "
                                f"{sorted(expected)}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    failures.append(f"{where}: {name} is not finite")
                if not metric.get("unit") or \
                        metric.get("unit") != expected.get(name):
                    failures.append(f"{where}: {name} unit "
                                    f"{metric.get('unit')!r}")
            if traced:
                trace = json.loads(trace_file.read_text())
                names = {e["name"] for e in trace["traceEvents"]}
                if "bench.cell" not in names:
                    failures.append(f"{where}: trace has no bench.cell span")
            print(f"ok   {where}: {len(metrics)} metrics")

    env = dict(os.environ, OISA_FORCE_LANE_WIDTH="64")
    refused = run(bench_command(args, "combine", TINY_SIZES), env=env)
    if refused.returncode == 0 or '"metrics"' in refused.stdout:
        failures.append("reported with OISA_FORCE_LANE_WIDTH set")
    else:
        print("ok   refuses to report with OISA_FORCE_LANE_WIDTH set")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["parity", "self-test"])
    parser.add_argument("--bench", required=True)
    parser.add_argument("--fig7")
    parser.add_argument("--fig9")
    parser.add_argument("--fault")
    parser.add_argument("--spec", type=Path)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    shutil.rmtree(args.work_dir, ignore_errors=True)
    args.work_dir.mkdir(parents=True)
    failures = parity(args) if args.mode == "parity" else self_test(args)
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
