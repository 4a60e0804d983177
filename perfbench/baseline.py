"""Record where each workload's time goes, with the machine it was measured on.

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
seed ``SEED`` and the file's ``run_seconds``, and writes
perfbench/baseline.json: provenance (nproc, CPU, Python and numpy versions,
commit), and per workload why it was chosen, its end-to-end metrics, and
each layer's share of the traced wall time (self time of the
layer's spans over the unit's wall time; ``bench`` is the benchmark's own
share).  On the threaded workload the shares add up to more than 1, since
both pool threads are busy at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402

SEED = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    import numpy
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    out = {
        "provenance": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                       "python": platform.python_version(), "numpy": numpy.__version__,
                       "commit": commit(), "seed": SEED, "seconds": seconds},
        "workloads": {},
    }
    for w in bench["workloads"]:
        e2e = measure(w["name"], SEED, seconds, 0)
        layers = measure(w["name"], SEED, seconds, 1)
        wall = layers["trace.wall_s"]
        shares = {layer: layers[f"{layer}.self_s"] / wall for layer in LAYERS}
        shares["bench"] = max(0.0, 1.0 - sum(shares.values()))
        out["workloads"][w["name"]] = {
            "why": w["why"], "end_to_end": e2e,
            "traced_wall_s": wall, "trace_overhead_s": layers["trace.overhead_s"],
            "layer_shares": {k: round(v, 4) for k, v in shares.items()},
        }
        print(w["name"], json.dumps(out["workloads"][w["name"]]["layer_shares"]), flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
