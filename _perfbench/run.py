#!/usr/bin/env python3
"""Build the benchmark against the enclosing checkout and run it.

Run from the root of a checkout:

    python3 _perfbench/run.py --workload ctr-bulk --seed 1 --seconds 10 --trace 0

The Go module in this directory is compiled with its build cache, module
cache and temporary files under .bench_build/ in the checkout, and the
binary is run with the same arguments. Its last line of standard output is
the result as one JSON object. The exit status is non-zero when the build or
the run fails, or when any output block did not match the reference.
Traced runs (--trace 1) also write their spans to .bench_build/perfbench/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")

# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOMODCACHE=os.path.join(BUILD, "go-path", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "go-tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def main(argv):
    for d in (OUT, os.path.join(BUILD, "go-tmp")):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE,
            env=go_env(),
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [binary, "--spans-dir", OUT] + argv,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
