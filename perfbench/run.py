#!/usr/bin/env python3
"""Build the benchmark and the unimem-serve daemon from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper --seed 3335 --seconds 30 --trace 0

Build outputs and the Go build cache go to .bench_build/ at the root. The
benchmark runs in its own process group, which is killed when it ends, so
no server outlives a run.
"""
import os
import signal
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOENV="off",
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOFLAGS="",
    )
    bench = os.path.join(out, "perfbench")
    server = os.path.join(out, "unimem-serve")
    builds = [
        (bench_dir, ["go", "build", "-o", bench, "."]),
        (root, ["go", "build", "-o", server, "./cmd/unimem-serve"]),
    ]
    for cwd, cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    proc = subprocess.Popen([bench] + sys.argv[1:] + ["--serve-bin", server],
                            cwd=root, env=env, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(143)))
    code = proc.wait()
    kill_group()
    sys.exit(code)


if __name__ == "__main__":
    main()
