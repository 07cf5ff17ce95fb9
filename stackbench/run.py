#!/usr/bin/env python3
"""Builds the stack benchmark from source and runs it pinned to one core.

Usage, from the root of the repository:

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `stackbench/` (a package of its own, with path dependencies on the
repository's crates) in release mode into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs the binary pinned to the last core this process
may use. The simulation engine runs exactly one simulated process at a
time on OS threads; unpinned, the thread hand-offs migrate between cores,
which costs about 2.3x in simulated requests per second and makes the
host-time figures noisy. The binary also runs with one malloc arena and
without address-space randomization, so that neither the allocator's
per-thread arenas nor each process's own memory layout moves the host-time
and peak-memory figures from one run to the next. Standard output ends with one JSON result line;
the exit code is the binary's (nonzero on a failed correctness gate, a
failed build or bad arguments).
"""

import ctypes
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def tree_digest():
    """SHA-256 over the sources the benchmark builds, for non-git checkouts."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "stackbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


ADDR_NO_RANDOMIZE = 0x0040000


def pin_and_fix_layout(core):
    """Runs in the child before exec: pin it to `core` and turn off address
    space randomization, which otherwise gives each process its own memory
    layout and with it a persistent speed of its own (best effort)."""
    os.sched_setaffinity(0, {core})
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "stackbench"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("stackbench: build failed", file=sys.stderr)
        return 1
    core = sorted(os.sched_getaffinity(0))[-1]
    # One malloc arena: only one simulated process runs at a time, so
    # glibc's per-thread arenas add no concurrency, only fragmentation that
    # makes peak RSS differ from run to run.
    env.update(STACKBENCH_PINNED_CORE=str(core), STACKBENCH_NPROC=str(os.cpu_count()),
               STACKBENCH_GIT_SHA=git_sha(),
               STACKBENCH_TREE_DIGEST=tree_digest(), MALLOC_ARENA_MAX="1")
    binary = os.path.join(target, "release", "stackbench")
    run = subprocess.run([binary] + sys.argv[1:], env=env,
                         preexec_fn=lambda: pin_and_fix_layout(core))
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
