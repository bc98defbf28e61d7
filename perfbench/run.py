#!/usr/bin/env python3
"""Build and run the SIRTM benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload colony-8x16 --seed 20000 --seconds 30 --trace 0

Builds the `perfbench` package (release profile) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and relays its output. The last line of
standard output is the one-line JSON result; nothing is printed as a result
when the build or the run fails, and the exit code is then non-zero.
Artefacts, traces and per-run result files land in `$CARGO_TARGET_DIR/perfbench`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("colony-8x16", "firmware-8x16", "dispatch-4x4")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    paths = []
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        full = os.path.join(root, top)
        if os.path.isfile(full):
            paths.append(top)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for name in filenames:
                paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(cmd, timeout, env, capture):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stdin=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20000)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        log("run from the root of a checkout holding perfbench/")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    started = time.monotonic()
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env,
        capture=False,
    )
    if code != 0:
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    git = command_output(["git", "rev-parse", "HEAD"])
    revision = f"git:{git or 'none'},src:{source_digest(root)}"
    rustc = command_output(["rustc", "--version"]) or "unknown"
    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary, "bench",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench"),
        "--revision", revision,
        "--rustc", rustc,
    ]
    code, out = run(cmd, RUN_TIMEOUT_S, env, capture=True)
    if code != 0 or out is None:
        sys.stderr.write(out or "")
        log(f"benchmark failed (exit {code})")
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(out)
        log("benchmark printed no result line")
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
