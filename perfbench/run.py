#!/usr/bin/env python3
"""Builds and runs the serve/scan benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (and the repository's libraries under src/) into the directory
named by $CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1. The line before it is the run's
{"_meta": ...}. A traced run also prints span self times, writes its spans
under <build dir>/out/, and reports its tracing overhead against the last
untraced run of the same workload in this build directory. The exit status
is non-zero when a correctness check fails, the metrics do not match
BENCHMARK.json, or the sources or build are missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree, not a clone
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "h2bench_selftest")]).returncode)
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at the repository root")

    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "h2bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--commit", git_commit()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if len(lines) < 2:
        fail(f"h2bench printed no result (exit {proc.returncode})")
    try:
        meta = json.loads(lines[-2])["_meta"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("h2bench output did not end with _meta and result lines")

    problems = []
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"unexpected {extra}, or units differ")

    cache = os.path.join(out_dir, f"untraced-{args.workload}.json")
    body = lines[:-2]
    if args.trace:
        try:
            with open(cache) as f:
                untraced = json.load(f)["metrics"]["ops_per_s"]["value"]
            traced = float(meta["traced_ops_per_s"])
            body.append(f"# tracing overhead ({args.workload}): untraced "
                        f"{untraced:.1f} ops/s, traced {traced:.1f} ops/s, "
                        f"ratio {untraced / traced:.4f}")
        except (OSError, ValueError, KeyError, ZeroDivisionError):
            body.append(f"# tracing overhead ({args.workload}): no untraced "
                        "run of this workload in this build directory yet")
    elif result.get("correct"):
        with open(cache, "w") as f:
            f.write(lines[-1] + "\n")

    if problems:
        result["correct"] = False
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
    print("\n".join(body))
    print(lines[-2])
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
