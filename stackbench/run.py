#!/usr/bin/env python3
"""Build stackbench from this checkout's source and run it.

Run from the root of a checkout:

    python3 stackbench/run.py --workload local-mixed --seed 1 --seconds 10 --trace 0

The binary, the Go build cache and Go's own state files all go under
.bench_build/ in the checkout, so nothing is read or written outside it.
The arguments are passed to the binary unchanged; see main.go.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("stackbench: no go.mod above %s; run from a checkout of the repository" % HERE,
              file=sys.stderr)
        return 2
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOPROXY="off",
               GOFLAGS="-buildvcs=false",
               GOTOOLCHAIN="local")
    binary = os.path.join(BUILD, "stackbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("stackbench: build: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
