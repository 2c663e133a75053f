#!/usr/bin/env python3
"""Build diversim and the benchmark harness from source, then run one workload.

Usage, from the root of a diversim checkout:

    python3 perfbench/run.py --workload campaign-full|serve-hot|serve-cold \
        --seed N --seconds S --trace 0|1

Both programs are built in release mode into $CARGO_TARGET_DIR (default
.bench_build): the shipped `diversim` binary from the root workspace, and
the harness from perfbench/ (its own workspace, linking the library for
the traced run). The harness prints a metadata header, one line per
check and metric, and last the result as one JSON object. The exit code
is the harness's: 0 when every correctness gate held, 1 when one failed.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_revision(root):
    """The git commit if this is a git checkout, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "bench", "Cargo.toml")):
        print("perfbench: run from the root of a diversim checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "diversim-bench", "--bin", "diversim"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in builds:
        if subprocess.run(command, cwd=root, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 2
    rustc = subprocess.run(
        ["rustc", "-V"], capture_output=True, text=True, env=env
    ).stdout.strip()
    harness = os.path.join(target, "release", "perfbench")
    diversim = os.path.join(target, "release", "diversim")
    command = [harness, *sys.argv[1:], "--diversim", diversim,
               "--rustc", rustc or "unknown", "--rev", source_revision(root)]
    return subprocess.run(command, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
