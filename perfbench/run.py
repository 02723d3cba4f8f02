#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-c --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the workload in several fresh
processes one after another (PROCESSES), each measuring for an equal share
of `--seconds` over its share of the seed's inputs. Each metric is the
median over the processes; `attempted` and `failed` are summed. A process's speed
on this kind of host depends on the process (memory placement): single
processes of one seed ranged ±25 % in replay throughput, so one process
per run would make the run the unit of noise.

Prints the processes' progress, one `{"provenance": ...}` line (host
fingerprint, commit or source digest, seed, size parameters, sample counts,
per-process values) and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`. The same record is saved
under `.bench_out/`.

Exits nonzero, with the reason on stderr, when the build fails, the
workload misses its deadline, or any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("replay-d-spill", "replay-c", "node-mixed")
BUILD_TIMEOUT_S = 700
# Processes per run: untraced runs spread over many for steady figures;
# the traced run's per-layer split needs fewer.
PROCESSES = {0: 8, 1: 2}
# A process measures for its share of `--seconds`, then finishes the round
# in progress (a few seconds); past this much more it is stuck.
DEADLINE_SLACK_S = 25
KILL_GRACE_S = 4
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, env):
    manifest = os.path.join(bench_dir, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(2, "cargo is not installed")
    except subprocess.TimeoutExpired:
        fail(2, f"build did not finish within {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(2, f"build failed (cargo exit {done.returncode})")


def command_output(cmd, cwd):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def host_fingerprint(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"], root)
    return {
        "host_nproc": str(nproc),
        "host_cpu_model": cpu,
        "rustc": command_output(["rustc", "-V"], root) or "unknown",
        "commit": commit or "none (not a git checkout)",
        "source_sha256": source_digest(root),
    }


def parse_result(line):
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    workspace = os.path.dirname(bench_dir)
    for needed in ("crates", "shims", "Cargo.toml"):
        if not os.path.exists(os.path.join(workspace, needed)):
            fail(2, f"'{needed}' is missing next to the benchmark: run from a full checkout")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    build(bench_dir, env)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    out_dir = os.path.join(root, ".bench_out")
    processes = PROCESSES[args.trace]
    parts = [run_part(args, binary, root, out_dir, part, processes) for part in range(processes)]
    result, per_process = combine([r for _, r in parts])
    provenance = dict(parts[0][0])
    provenance.pop("part", None)
    provenance["processes"] = str(processes)
    provenance["per_process"] = json.dumps(per_process, sort_keys=True)
    provenance["per_process_provenance"] = json.dumps([p for p, _ in parts], sort_keys=True)
    provenance.update(host_fingerprint(workspace))
    record = {"provenance": provenance, "result": result}
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    if not result["correct"]:
        fail(1, f"{args.workload}: output checks failed (see above)")


def run_part(args, binary, root, out_dir, part, processes):
    """Runs one process of the workload; returns its provenance and result."""
    tmp_dir = os.path.join(
        root, ".bench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}-{part}-{time.time_ns()}"
    )
    os.makedirs(tmp_dir)
    deadline = args.seconds / processes + DEADLINE_SLACK_S
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / processes),
        "--trace", str(args.trace),
        "--tmp-dir", tmp_dir,
        "--out-dir", out_dir,
        "--deadline-s", repr(deadline),
        "--part", str(part),
        "--parts", str(processes),
    ]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=deadline + KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(3, f"{args.workload} did not finish within {deadline + KILL_GRACE_S:.0f} s")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_dir))
        except OSError:
            pass

    lines = stdout.splitlines()
    result = parse_result(lines[-1]) if lines else None
    provenance = {}
    for line in lines[:-1] if result else lines:
        if line.startswith('{"provenance":'):
            provenance = json.loads(line)["provenance"]
        else:
            print(line)
    if result is None:
        fail(proc.returncode or 4, f"{args.workload} exited {proc.returncode} without a result")
    if proc.returncode != 0 and result["correct"]:
        fail(proc.returncode, f"{args.workload} exited {proc.returncode}")
    return provenance, result


def combine(results):
    """Median of each metric over the processes; counts summed."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics, per_process = {}, {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        per_process[name] = values
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    if "verified_frac" in metrics:
        metrics["verified_frac"]["value"] = 1.0 - failed / max(attempted, 1)
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, per_process


if __name__ == "__main__":
    main()
