#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly, untraced and
traced, and checks the output against BENCHMARK.json.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Checks, per workload and trace mode:
  * the run exits 0 and its last stdout line is the JSON result with
    exactly the keys correct, attempted, failed and metrics;
  * the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    metrics of BENCHMARK.json, each with its declared unit and a finite
    value, and each also printed as a "metric <name> <value> <unit>" line;
  * the traced metrics of the layers a workload calls are not 0;
  * the rdb.* counts of two traced query runs with the same seed agree
    exactly.
It also checks that the benchmark fails without a result in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"
SEED = "7"
# Counts from the engine's metrics registry that repeat exactly on query.
EXACT_QUERY_COUNTS = ["rdb.stmts_per_op", "rdb.rows_scanned_per_result",
                      "rdb.batches_per_op", "rdb.plancache_hit_ratio",
                      "rdb.plancache_evictions", "rdb.records_replayed"]
# Per-layer metrics that must be measured, and so not 0, on each workload:
# those of the layers it calls, except counts a 1 s traced half may not
# reach (ingest checkpoints every 24 lifecycles per store).
NONZERO = {
    "query": ["xpath.parse_us", "shred.eval_us", "shred.string_values_us",
              "rdb.stmts_per_op", "rdb.rows_scanned_per_result",
              "rdb.batches_per_op", "rdb.plancache_hit_ratio",
              "rdb.recover_s", "trace.overhead_ratio"],
    "serve": ["xpath.parse_us", "net.rpc_us", "net.exec_us", "net.wire_us",
              "shard.routed_us", "shard.write_us", "shard.fanout_us",
              "shard.request_skew", "shard.read_write_overlap_ratio",
              "rdb.stmts_per_op", "rdb.wal_bytes_per_op", "rdb.syncs_per_op",
              "rdb.sync_us", "rdb.version_bytes", "rdb.recover_s",
              "trace.overhead_ratio"],
    "ingest": ["xml.parse_us", "shred.store_us", "shred.update_us",
               "shred.remove_us", "publish.document_us", "rdb.stmts_per_op",
               "rdb.wal_bytes_per_op", "rdb.syncs_per_op", "rdb.sync_us",
               "rdb.records_replayed", "rdb.recover_s",
               "trace.overhead_ratio"],
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(bench, workload, trace, errors):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']}")
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{where}: missing {sorted(set(units) - set(got))}, "
                      f"undeclared {sorted(set(got) - set(units))}")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = fields[3]
    for name, unit in units.items():
        metric = got.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            errors.append(f"{where}: {name} unit {metric.get('unit')} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        if printed.get(name) != unit:
            errors.append(f"{where}: {name} not printed with its unit")
    if trace == "1":
        for name in NONZERO.get(workload, []):
            if got.get(name, {}).get("value") == 0:
                errors.append(f"{where}: {name} is 0")
    return got


def check_without_sources(errors):
    """The benchmark must fail, printing no result, without the sources."""
    bare = ROOT / ".perfbench_run" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = run("query", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("bare directory: expected failure without a result, "
                          f"got exit {proc.returncode}")
    finally:
        shutil.rmtree(ROOT / ".perfbench_run", ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    traced = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            got = check_run(bench, workload, trace, errors)
            if trace == "1" and got is not None:
                traced[workload] = got
            print(f"selftest: {workload} --trace {trace} done", flush=True)
    if "query" in traced:
        again = check_run(bench, "query", "1", errors)
        for name in EXACT_QUERY_COUNTS:
            metric = traced["query"].get(name)
            if again is not None and again.get(name) != metric:
                errors.append(f"query: {name} differs between traced runs")
    check_without_sources(errors)
    for e in errors:
        print(f"selftest: FAIL {e}")
    print(f"selftest: {'FAILED' if errors else 'OK'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
