#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 15 --trace 0

perfbench/ is a Go module of its own that uses the repository's packages
through a replace directive. This script builds it into .bench_build/,
with the Go build cache and temporary files kept there too so nothing is
written outside the checkout. It then runs the binary from the checkout
root with the given arguments and passes its exit code through. A failed
build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    default = "/usr/local/go/bin/go"
    return default if os.path.exists(default) else "go"


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=home,
    )
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(
            [go_binary(), "build", "-o", binary, "."],
            cwd=src, env=env, check=True, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run(
            [binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S,
        ).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
