#!/usr/bin/env python3
"""Build the opbench binary from the checkout's sources and run one workload.

    python3 opbench/run.py --workload svc_day_max --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it is
set, else to .bench_build/ (both relative to the current directory); build logs
go to stderr so that the last line of stdout stays the benchmark's JSON result.
The result line is checked against BENCHMARK.json: it must carry exactly the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) listed
there. Exit codes: the binary's own, 2 when the build fails, 3 when the result
line does not match BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "opbench")


def expected_metrics(argv):
    """Metric names BENCHMARK.json promises for this run, or None."""
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    argv = sys.argv[1:]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"opbench: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    want = expected_metrics(argv)
    lines = proc.stdout.strip().splitlines()
    if want is not None and lines:
        got = set(json.loads(lines[-1])["metrics"])
        if got != want:
            print(f"opbench: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}",
                  file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
