"""The workload process started by run.py: imports the program, sets up
through its loaders, then either stops (a set-up timing) or runs the timed
phase, and prints one JSON object as its last line of standard output.

Untraced, it runs passes until --seconds have gone by (at least one). Traced,
it runs one pass untraced, then installs the wrappers, sets up and runs one
pass again, removes the wrappers and reports the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time

import layers
import stats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="inputs JSON written by run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's peak resident memory. VmHWM belongs to the address space
    made at exec. ru_maxrss also keeps the peak of the address space that was
    replaced, so in a process started from a large parent it reports the
    parent's peak. ru_maxrss is the fallback where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(passes, batch: int) -> dict:
    def rate(times):
        # work over time rather than a per-call median: on a shared host short
        # calls run at two distinct speeds, and a median flips between them
        return batch * len(times) / sum(times) if times else 0.0

    eval_s = [t for p in passes for t in p.eval_batch_s]
    query_s = [t for p in passes for t in p.query_batch_s]
    train_seconds = sum(p.train_seconds for p in passes)
    query_seconds = sum(p.query_seconds for p in passes)
    out = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "passes": len(passes),
        "run_s": stats.median([p.seconds for p in passes]),
        "train_samples_per_s": (sum(p.train_samples for p in passes) / train_seconds
                                if train_seconds else None),
        "eval_samples_per_s": rate(eval_s),
        "retrieve_queries_per_s": (sum(p.queries for p in passes) / query_seconds
                                   if query_seconds else 0.0),
        "val_accuracy": passes[-1].val_accuracy,
        "param_count": passes[-1].param_count,
        "boundary_ties": sum(p.boundary_ties for p in passes),
        "samples": {
            "pass_s": stats.timing_summary(p.seconds for p in passes),
            "eval_batch_ms": stats.timing_summary(1e3 * t for t in eval_s),
            "query_batch_ms": stats.timing_summary(1e3 * t for t in query_s),
        },
    }
    if len({p.val_accuracy for p in passes}) > 1:
        # same seed, same inputs: every pass must learn the same thing
        out["failed"] += 1
        out["failures"].append(f"val accuracy differs between passes: "
                               f"{[p.val_accuracy for p in passes]}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(inputs)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not args.trace:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(workload.run_pass(state))
        out.update(summarize(passes, workloads.BATCH))
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        untraced = workload.run_pass(state)
        del state  # the traced set-up loads everything again
        tracer = layers.new_tracer()
        layers.install(tracer)
        try:
            traced = workload.run_pass(workload.setup(inputs))
        finally:
            tracer.unpatch_all()
        out.update(summarize([untraced, traced], workloads.BATCH))
        out["layer_metrics"] = layers.metrics(tracer, untraced.seconds, traced.seconds)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
