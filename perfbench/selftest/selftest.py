#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest/selftest.py .bench_build/pmbench

For every workload, a tiny-size run with --trace 0 and one with --trace 1
must each report correct, and emit exactly the end-to-end / per-layer
metrics BENCHMARK.json lists, with the units it gives them.  A run that
flips one byte of a stored blob (through PMEM::for_each_raw, --corrupt 1)
must report itself incorrect.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
SCALE = "0.01"
# Every workload the driver knows: the gated ones in BENCHMARK.json and
# small_kv, which perfbench/FINDINGS.md reports but the gate leaves out.
DRIVER_WORKLOADS = ["ckpt_write", "restart_read", "small_kv"]


def run(exe, workload, trace, corrupt=0):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--scale", SCALE, "--corrupt", str(corrupt)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    exe = sys.argv[1]
    with open(SPEC) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in DRIVER_WORKLOADS:
        for trace in (0, 1):
            res = run(exe, w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                failures.append(f"{w} trace={trace}: missing={missing} "
                                f"extra={extra} wrong_unit={wrong}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
                failures.append(f"{w} trace={trace}: clean run reported {res}")
        bad = run(exe, w, 0, corrupt=1)
        if bad["correct"]:
            failures.append(f"{w}: a flipped byte went unnoticed")
        print(f"{w}: ok" if not failures else f"{w}: checked", flush=True)
    if failures:
        print("\n".join(failures))
        return 1
    print("perfbench selftest: all workloads emit every metric; corruption is caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
