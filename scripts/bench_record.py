"""Record one point of the performance trajectory: run clawbench on every
workload, untraced and traced, and write the result lines to one file.

    python3 scripts/bench_record.py --tag 7

Run it from anywhere; it runs `clawbench/run.py` from the repository root
with seed 0 and the benchmark's 25 s run length, one workload and mode at a
time, and writes `BENCH_<tag>.json` there with the Python version, the CPU
count (`nproc`) and, per run, the command's arguments, exit code and its
last output line parsed as JSON, or the tail of its stderr if it failed.
It exits 1, naming the runs, if any run failed or reported `correct: false`;
the file is written either way.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rand-k3", "tight-union", "small-exact")


def run_one(workload: str, trace: int) -> dict:
    args = ["--workload", workload, "--seed", "0", "--seconds", "25", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, os.path.join("clawbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    run = {"workload": workload, "trace": trace, "args": args, "exit_code": proc.returncode}
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
    else:
        run["result"] = None
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-10:]
    return run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="file name suffix: BENCH_<tag>.json")
    opts = ap.parse_args()
    runs = [run_one(w, trace) for w in WORKLOADS for trace in (0, 1)]
    doc = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{opts.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    status = 0
    for r in runs:
        correct = (r["result"] or {}).get("correct")  # None when the run failed
        if not correct:
            print(f"{r['workload']} --trace {r['trace']}: exit {r['exit_code']}, correct: {correct}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
