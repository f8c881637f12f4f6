#!/usr/bin/env python3
"""Builds and runs one workload of the kgq-serve benchmark.

    python3 kgqbench/run.py --workload point-read|bulk-paths|read-write \
        --seed N --seconds S --trace 0|1 [--scale full|tiny] [--record FILE]

Run from the root of a source tree. The harness (kgqbench/CMakeLists.txt)
is configured and built from source under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The harness's stdout is
passed through with provenance added (git sha when the tree is a git
checkout, and a digest of src/ always), so its last line stays the result
object. --record appends {"provenance", "result"} as one jsonl line to
FILE, the input of compare.py. Exits non-zero, without a result line,
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir, env):
    """Configures (once) and builds the harness; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "kgqbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "kgq_bench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, env=env, check=True)
    return os.path.join(cmake_dir, "kgq_bench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over src/ (relative paths and contents, in sorted order)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["point-read", "bulk-paths", "read-write"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--scale", default="full", choices=["full", "tiny"])
    ap.add_argument("--record", help="append provenance + result to FILE")
    args = ap.parse_args()

    out_dir = build_dir()
    # Temporary files (the compiler's included) stay inside the tree.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(out_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"kgqbench: build failed: {e}", file=sys.stderr)
        return 2

    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, f"{args.workload}-seed{args.seed}-{args.scale}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("kgqbench: run timed out", file=sys.stderr)
        return 2

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(f"kgqbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return 2
    provenance = {}
    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except ValueError:
            print(line)
            continue
        if isinstance(obj, dict) and "provenance" in obj:
            provenance = obj["provenance"]
            provenance["git_sha"] = git_sha()
            provenance["source_digest"] = source_digest()
            print(json.dumps({"provenance": provenance}))
        else:
            print(line)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"provenance": provenance,
                                "result": result}) + "\n")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
