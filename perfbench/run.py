#!/usr/bin/env python3
"""Build and run the real-speed HTAP benchmark.

    python3 perfbench/run.py --workload <fi-oltp|fi-hybrid|su-htap> \
        --seed N --seconds S --trace <0|1>

Run from the repository root.  Builds the `perfbench` cargo package in release
mode (into `$CARGO_TARGET_DIR`, default `perfbench/target`), runs it with the
same arguments, and forwards its report.  The last line of standard output is
one JSON object holding the metrics `BENCHMARK.json` lists for the mode:
`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`.  Exits non-zero
without a result when the build, the run or an output check fails.
"""

import hashlib
import json
import os
import subprocess
import sys

PACKAGE = "perfbench"
BINARY = "olxp-perfbench"


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.isdir(".git"):
        try:
            return "git " + subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", PACKAGE]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not any(p in ("target", ".data") for p in d.split(os.sep))
            for f in files
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "sources sha256 " + digest.hexdigest()


def main():
    argv = sys.argv[1:]
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    with open("BENCHMARK.json") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer" if traced else "end_to_end"]]

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(PACKAGE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(PACKAGE, "target"))

    print("source:", source_revision(), flush=True)
    run = subprocess.run(
        [os.path.join(target, "release", BINARY)] + argv,
        stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines), flush=True)
        sys.exit(run.returncode or 1)
    print("\n".join(lines[:-1]))

    result = json.loads(lines[-1])
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        sys.exit("perfbench: metrics missing from the run: " + ", ".join(missing))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {k: result["metrics"][name][k] for k in ("value", "unit")}
            for name in wanted
        },
    }))


if __name__ == "__main__":
    main()
