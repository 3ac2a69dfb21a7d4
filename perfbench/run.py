#!/usr/bin/env python3
"""Build and run one workload of the FLIPS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload in a
process of its own with a per-run temporary directory under `.bench_tmp/`
that is removed on every exit, and passes the benchmark's output
through: its last line is the JSON result. Exits non-zero, without a
result, when the repository's crates are missing or the build fails;
exits non-zero after the result when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_cell", "deploy_tcp", "roster_10k_flips")
# A run may take 180 s; the build of a fresh checkout is not counted.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "flips-core", "Cargo.toml")):
        print("error: the repository's crates are missing; nothing to benchmark", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode or 1

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root)
    cmd = [os.path.join(target, "release", "flips-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 0 and not names_match(out, args.trace):
        return 4
    return proc.returncode


def names_match(out, trace):
    """Whether the result line names exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = out.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    if got != want:
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
              f"unlisted {sorted(got - want)}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
