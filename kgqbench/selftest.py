#!/usr/bin/env python3
"""Tiny-scale self-test of the kgq-serve benchmark.

    python3 kgqbench/selftest.py

Runs every workload of BENCHMARK.json through run.py at --scale tiny for
a couple of seconds, untraced and traced, with the same code as the full
benchmark. Each run must exit 0, pass its correctness gate with no failed
operation, and print exactly the metric names and units BENCHMARK.json
declares (end-to-end untraced, per-layer traced). Exits 1 on any miss.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for w in bench["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "7", "--seconds", "2",
                   "--trace", trace, "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no result line")
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}")
            if result is not None:
                if not result["correct"]:
                    problems.append("correctness gate failed")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"attempted={result['attempted']} "
                                    f"failed={result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected:
                    problems.append(f"metrics differ: missing "
                                    f"{sorted(set(expected) - set(got))}, "
                                    f"extra {sorted(set(got) - set(expected))}")
                for name, v in result["metrics"].items():
                    print(f"  {w['name']:11s} {name:30s} "
                          f"{v['value']:14.6g} {v['unit']}")
            status = "OK" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']} trace={trace}: {status}", flush=True)
            ok &= not problems
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
