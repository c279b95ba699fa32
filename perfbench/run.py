#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload svc-hot --seed 1 --seconds 20 --trace 0

It builds perfbench/bench.exe with dune (build output goes to stderr),
then runs it with the same arguments. The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}. The exit
code is the benchmark's own; it is non-zero when the sources of the
program under test are missing or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main(argv):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a full "
                "checkout of the repository\n" % needed)
            return 2
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
