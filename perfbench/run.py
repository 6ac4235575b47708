#!/usr/bin/env python3
"""Build the perfbench binary from the enclosing checkout and run one workload.

Run from the checkout root:

    python3 perfbench/run.py --workload oltp-wire --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, run data and trace files all live under
.bench_build/ in the checkout. The JSON result of perfbench is the last line of
standard output; the exit code is perfbench's. A checkout without the
engine's sources fails to build and exits non-zero without a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700  # with RUN_TIMEOUT_S, under 900 s for a first run that builds
RUN_TIMEOUT_S = 175


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stdout, file=sys.stderr)
        return 1

    cmd = [binary, *sys.argv[1:],
           "-dir", os.path.join(build, "run"),
           "-trace-out", os.path.join(build, "traces")]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
