"""Run one workload of the freqfuse benchmark and print its metrics.

    python3 perfbench/run.py --workload train_fold --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. Inputs are
generated from --seed into .perfbench/ and removed afterwards. Set-up is timed
in the workload's `setup_repeats` fresh processes and reported as their median:
half of them run before the process that goes on to the timed phase and half
after it, so the set-up samples span the run as the timed passes do. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics, both named in BENCHMARK.json.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import record  # noqa: E402
import stats  # noqa: E402

DEADLINE_S = 175.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("train_fold", "ablation_fold", "eval_large_kb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(args, inputs_path: str, deadline: float, setup_only: bool, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--inputs", inputs_path,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the workload process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list, inputs: dict) -> dict:
    values = {key: result[key] for key in (
        "run_s", "train_samples_per_s", "eval_samples_per_s", "retrieve_queries_per_s",
        "peak_rss_mb", "val_accuracy")}
    values["setup_s"] = stats.median(setups)
    if values["train_samples_per_s"] is None:
        values["train_samples_per_s"] = inputs["train_samples_per_s"]  # measured by generate()
    return values


def run(args, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    bench_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(bench_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = None
    if args.trace:
        os.makedirs(os.path.join(bench_dir, "traces"), exist_ok=True)
        spans = os.path.join(bench_dir, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.generate(args.seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        around = workload.setup_repeats - 1
        setups = [spawn(args, inputs_path, deadline, True, None)["setup_s"]
                  for _ in range(around // 2)]
        result = spawn(args, inputs_path, deadline, False, spans)
        setups.append(result["setup_s"])
        setups += [spawn(args, inputs_path, deadline, True, None)["setup_s"]
                   for _ in range(around - around // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, declared = result["layer_metrics"], spec["per_layer"]
    else:
        values, declared = end_to_end(result, setups, inputs), spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps({
        **record.environment(root), "seed": args.seed, "kb_size": inputs["kb_size"],
        "param_count": result["param_count"]}))
    print(f"passes {result['passes']}; samples behind each median: "
          + json.dumps(result["samples"]))
    print(f"setup_s of {len(setups)} processes: {[round(s, 4) for s in setups]}")
    if args.workload == "eval_large_kb":
        print(f"query rows with a tie at the k boundary, in checked batches: "
              f"{result['boundary_ties']}")
    if args.trace and result["layer_metrics"]["training.fold_ms"] > 0:
        m = result["layer_metrics"]
        phases = sum(m[f"training.phase.{p}_ms"]
                     for p in ("forward", "loss", "backward", "optimizer", "eval", "other"))
        overhead_ms = 1e3 * (m["trace.traced_run_s"] - m["trace.untraced_run_s"])
        print(f"traced phases sum to {phases:.1f} ms of {m['training.fold_ms']:.1f} ms "
              f"traced fold time; tracing overhead {overhead_ms:.1f} ms; spans in {spans}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freqfuse", "__init__.py")):
        print("perfbench: src/freqfuse not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        return run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
