#!/usr/bin/env python3
"""vr-bench: builds vretrieve in Release and runs one benchmark workload.

Usage (from the repository root):

    python3 vrbench/run.py --workload cold_query --seed 1 --seconds 25 --trace 0

Workloads: cold_query, archive_by_id, ingest_with_queries. --smoke runs a
seconds-scale version of the same workload with every check kept. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). See vrbench/README.md.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; each run works in a fresh directory below it that is
removed when the run ends.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("cold_query", "archive_by_id", "ingest_with_queries")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"vr-bench: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-1 over every file under src/ and vrbench/, for checkouts without git."""
    digest = hashlib.sha1()
    for top in ("src", "vrbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_root):
    """Configures and builds vr_bench; returns the binary path."""
    build_dir = os.path.join(build_root, "vrbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(build_root, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "vrbench"), "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vr_bench")


def main():
    # A terminated run still stops its child and removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale run, every check kept")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="cold_query: open-loop offered rate (queries/s)")
    parser.add_argument("--two-stage", type=int, choices=(0, 1), default=1,
                        help="archive_by_id: two-stage query on/off")
    parser.add_argument("--workers", type=int, default=4,
                        help="ingest_with_queries: pipeline workers")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else 25)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"vretrieve sources not found under {root}/src")
        return 2

    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run.", dir=runs)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace),
           "--workdir", workdir, "--git-sha", git_sha(root),
           "--source-digest", source_digest(root),
           "--rate", repr(args.rate), "--two-stage", str(args.two_stage),
           "--workers", str(args.workers)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        log(f"run failed with exit code {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
