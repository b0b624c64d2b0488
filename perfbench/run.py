#!/usr/bin/env python3
"""Build the benchmark from source, then run it in place of this process.

Run from the repository root:

    python3 perfbench/run.py --workload ts-codec --seed 1 --seconds 12 --trace 0

Every build artefact stays inside the checkout: the binary, the Go build
cache, module cache and temporary files go under $CARGO_TARGET_DIR (default .bench_build).
A failed build exits 1 without printing a result.
"""
import os
import subprocess
import sys
import time


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + ["--start-ns", str(time.time_ns())]
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
