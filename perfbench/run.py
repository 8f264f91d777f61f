#!/usr/bin/env python3
"""Build and run the rtlock host-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream-C --seed 1 --seconds 10 --trace 0

perfbench is a Go module of its own that imports the rtlock module from
the parent directory. This script builds it from source into .bench_build/
at the repository root, then runs it with the given arguments. The build
cache, the binary, the traced run's spans and CPU profile all go under
.bench_build/. The last line of standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A cold build compiles the standard library into a fresh cache.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def go_env():
    """Confine the Go toolchain's caches and settings to .bench_build."""
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="", GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off")
    return env


def call(cmd, cwd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        return 1


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s has no go.mod; the benchmark builds the rtlock "
                         "module from source and needs its checkout\n" % ROOT)
        return 2
    env = go_env()
    code = call(["go", "build", "-o", BINARY, "."], HERE, env, BUILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return code or 1
    args = list(argv)
    if not any(a.lstrip("-").split("=")[0] == "out" for a in args):
        args += ["--out", os.path.join(BUILD, "trace")]
    return call([BINARY] + args, ROOT, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
