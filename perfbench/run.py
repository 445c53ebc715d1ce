#!/usr/bin/env python3
"""Builds the benchmark and `cjrc` from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <compile|execute|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds go to `$CARGO_TARGET_DIR` when it is set. The benchmark's
result is the last line of standard output; build output and the report
rows go to standard error.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    target = os.environ.get("CARGO_TARGET_DIR")
    builds = [
        (root / "perfbench" / "Cargo.toml", [], "perfbench", root / "perfbench" / "target"),
        (root / "Cargo.toml", ["--bin", "cjrc"], "cjrc", root / "target"),
    ]
    binaries = []
    for manifest, extra, name, default_target in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", str(manifest), *extra]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: building {name} failed", file=sys.stderr)
            return 1
        binaries.append((Path(target) if target else default_target) / "release" / name)
    bench, cjrc = binaries
    return subprocess.run([str(bench), *sys.argv[1:], "--cjrc", str(cjrc)]).returncode


if __name__ == "__main__":
    sys.exit(main())
