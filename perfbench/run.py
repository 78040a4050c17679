#!/usr/bin/env python3
"""Build and run the repository benchmark (see NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload ycsb --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), with the Go build cache,
temporary files and configuration kept there too, so nothing outside the
checkout is read or written besides the Go toolchain itself. All arguments
are passed through; the program's last stdout line is the JSON result.
"""

import os
import subprocess
import sys

# A run ends well inside this; a program still alive after it is killed
# and the run fails without a result.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", build] + sys.argv[1:]
    try:
        return subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
