#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload durable-rpc --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, the binary and trace
artifacts go under $CARGO_TARGET_DIR (default .bench_build) inside the
repository, so a run writes nothing outside it. The last line of standard
output is the result JSON printed by the Go program; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root_mod = os.path.join(ROOT, "go.mod")
    try:
        with open(root_mod) as f:
            if "module prdma\n" not in f.read():
                fail("go.mod at the repository root does not declare module prdma")
    except OSError:
        fail("no go.mod at the repository root: the benchmark builds the prdma module from source")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, capture_output=True, text=True, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if built.returncode != 0:
        sys.stderr.write(built.stderr)
        fail("build failed")

    args = [binary] + sys.argv[1:] + [
        "--expect", os.path.join(HERE, "expected.json"),
        "--out", os.path.join(build, "trace"),
    ]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
