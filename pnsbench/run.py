#!/usr/bin/env python3
"""The repository benchmark: build pnsbench from source, run one workload.

    python3 pnsbench/run.py --workload table2_exact --seed 42 --seconds 20 --trace 0

Builds the pns library and the pnsbench driver into .bench_build/ (first
run only), then runs the workload and prints, as the last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": v, "unit": u}.

setup_s is the median over several fresh processes (each stops at its
first row handed out) plus the measuring run itself. Correctness: the
driver checks every pass against the first pass, the batched workloads
against rk23pi and the daemon against an in-process run; at the default
seed this script also checks the SHA-256 of the aggregate CSV+JSON
against pnsbench/digests.json. Any mismatch fails every attempted row and
the exit code is 1. See pnsbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 42
SETUP_SAMPLES = 24  # fresh set-up-only processes, plus the measuring run
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds .bench_build/pnsbench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no pns source tree (CMakeLists.txt, src/) in {ROOT}")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another tree
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "pnsbench")


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_driver(binary, argv, cwd):
    proc = subprocess.run([binary] + argv, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=cwd)
    sys.stderr.write(proc.stderr)
    try:
        return proc.returncode, last_json_line(proc.stdout)
    except json.JSONDecodeError:
        return proc.returncode, None


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", action="store_true",
                    help="self-test size: windows x 0.05, 8 daemon jobs")
    ap.add_argument("--digests", default=DIGESTS,
                    help="stored default-seed digests (default: %(default)s)")
    ap.add_argument("--record-digest", action="store_true",
                    help="store this run's digest (default seed only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    # pnsbench runs inside run_dir, so its daemon socket path stays
    # short however deep the checkout sits.
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--state-dir", "state"]
    if args.shrink:
        common.append("--shrink")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                code, out = run_driver(binary, common + ["--setup-only"],
                                       run_dir)
                if code != 0 or out is None:
                    die("set-up-only run failed")
                setups.append(out["setup_s"])
        dump = os.path.join(run_dir, "aggregate.bytes")
        code, out = run_driver(binary, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--dump", dump], run_dir)
        if out is None or "metrics" not in out:
            die(f"driver exited {code} without a result")
        digest = sha256(dump) if os.path.isfile(dump) else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    digest_ok = digest is not None
    key = args.workload + (":shrink" if args.shrink else "")
    if args.seed == DEFAULT_SEED and digest_ok:
        stored = {}
        if os.path.isfile(args.digests):
            with open(args.digests) as f:
                stored = json.load(f)
        if args.record_digest and code == 0 and failed == 0:
            stored[key] = digest
            with open(args.digests, "w") as f:
                json.dump(stored, f, indent=2, sort_keys=True)
                f.write("\n")
        elif stored.get(key) != digest:
            print(f"run.py: {key} digest {digest} != stored {stored.get(key)}",
                  file=sys.stderr)
            digest_ok = False
    if not digest_ok:
        failed = attempted  # the bytes of every row are in question
    correct = code == 0 and failed == 0

    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])
        print(f"run.py: {out['latency_samples']} job latency samples, "
              f"{out['passes']} passes of {out['rows_per_pass']} rows",
              file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("driver did not report " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
