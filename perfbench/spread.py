"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread, (Q3 - Q1) / median, against its bound.

    python3 perfbench/spread.py --workload train_fold --seeds 1 2 3 4 5

Run from the repository root. Each run lasts run_seconds from BENCHMARK.json.
A spread should stay below a third of the metric's bound there ("ok"); the
exit code is 1 when a run is incorrect or a spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        runs.append(result)

    ok = all(r["correct"] for r in runs)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        steady = spread < metric["bound"] / 3
        ok = ok and spread <= metric["bound"]
        print(f"{metric['name']:<24} median {stats.median(values):>14.6g} {metric['unit']:<10} "
              f"spread {spread:.4f} bound {metric['bound']} {'ok' if steady else 'WIDE'}")
        print("    " + " ".join(f"{v:.6g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
