#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload artefact --seed 1 --seconds 20 --trace 0

It builds perfbench/main.exe with dune, strips every GCR_* variable from
the environment (the benchmark configures the library itself), stamps the
source revision, and runs the executable, whose last stdout line is the
JSON result. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCR_")}
    # the shared build cache lives outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=dict(env, DUNE_CACHE="disabled"), stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = source_revision()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
