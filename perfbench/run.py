#!/usr/bin/env python3
"""Runs one workload of the rankjoin benchmark and prints its metrics.

    python3 perfbench/run.py --workload vj-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a rankjoin source tree. It builds perfbench/ (and
with it the library, from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; generates the workload's inputs from the
seed as text files; runs the passes in one process; and prints every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The exit code is 0 only when every output checked out.

Everything it writes stays under the build directory; the generated inputs
and pair files are deleted at the end, the Chrome trace of a traced run is
kept in <build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the passes stop after --seconds, and the
# warm-up pass and the output checks take the rest.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rankjoin sources at {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rkbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "rkbench")


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:16]


def check_counters_across_runs(build_dir, binary, workload, seed, counters):
    """The exact counters of one seed must repeat in every run of the same
    binary; the first run records them. Returns an error or None."""
    record_dir = os.path.join(build_dir, "counters")
    os.makedirs(record_dir, exist_ok=True)
    record = os.path.join(
        record_dir, f"{workload}-{seed}-{file_digest(binary)}.json")
    if os.path.isfile(record):
        with open(record) as f:
            earlier = json.load(f)
        if earlier != counters:
            return (f"exact counters {counters} differ from an earlier run "
                    f"with the same seed: {earlier}")
        return None
    with open(record, "w") as f:
        json.dump(counters, f)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # The engine's own environment overrides (RANKJOIN_*) would change the
    # measured configuration; temp files stay in the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RANKJOIN_")}
    env["TMPDIR"] = work
    started = time.monotonic()
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        subprocess.run([binary, "gen", *common], env=env, check=True,
                       timeout=RUN_TIMEOUT_S)
        command = [binary, "run", *common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(remaining, 1))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"{args.workload} failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"rkbench exited with {proc.returncode} and no result")

    correct = result["correct"] and proc.returncode == 0
    attempted, failed = result["attempted"], result["failed"]
    error = check_counters_across_runs(
        build_dir, binary, args.workload, args.seed, result["counters"])
    if error:
        print(f"FAILED {error}")
        correct, failed = False, attempted
    if not correct and failed == 0:
        failed = attempted  # a check that no single pass owns fails them all

    print(f"{args.workload} seed {args.seed} digest {result['digest']}: "
          f"{attempted - failed}/{attempted} passes correct")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} fraction")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            fail(f"rkbench did not report {name}")
        metrics[name] = result["metrics"][name]
        if metrics[name]["unit"] != metric["unit"]:
            fail(f"{name} is in {metrics[name]['unit']}, BENCHMARK.json "
                 f"says {metric['unit']}")
        print(f"  {name:<28} {metrics[name]['value']:.6g} "
              f"{metrics[name]['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
