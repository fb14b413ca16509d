#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command per workload run.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark binary
from source (CMake, Release) into .bench_build/ (or $CARGO_TARGET_DIR),
runs one workload, and prints the binary's report. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones.

On top of the binary's own output checks, this script keeps a ledger of
the numbers that are exact for a given seed (one file per source tree,
workload, seed and trace mode) and flags a run whose numbers differ from
an earlier run of the same seed on the same sources. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["route-default", "te-storm", "te-warm", "batch-stream"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures once, then lets CMake rebuild whatever changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout is the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "e2ebench"


def source_digest():
    """Digest of every file the binary is built from."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.[ch]*"))
    files += [BENCH_DIR / "CMakeLists.txt", BENCH_DIR / "e2ebench.cpp"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(out, args, exact):
    """Records the exact-per-seed numbers, or compares them with the record
    of an earlier run of the same sources, workload, seed and trace mode.
    Returns the names that differ."""
    ledger = out / "exact-ledger" / source_digest()
    ledger.mkdir(parents=True, exist_ok=True)
    entry = ledger / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if not entry.exists():
        entry.write_text(json.dumps(exact, sort_keys=True))
        return []
    before = json.loads(entry.read_text())
    return sorted(k for k in set(before) | set(exact)
                  if before.get(k) != exact.get(k))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (ROOT / "src" / "api" / "sor_engine.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    out = build_dir()
    binary = build(out)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"e2ebench exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    exact = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
    drift = check_ledger(out, args, exact)
    if drift:
        print("DETERMINISM FAILED: differs from an earlier run of this seed: "
              + ", ".join(drift))
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1
    print(json.dumps(result))


if __name__ == "__main__":
    main()
