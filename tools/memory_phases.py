"""Where a benchmark workload's memory goes, phase by phase.

    python3 tools/memory_phases.py WORKLOAD SEED

Run from the repository root; the program is imported from ./src. WORKLOAD is
one of perfbench's (train_fold, ablation_fold, eval_large_kb). The script
generates the workload's inputs from SEED with perfbench/workloads.py into a
temporary directory, then, in a fresh spawned process, runs the workload's
set-up and one pass of its timed phase, as perfbench/worker.py does. It reads
that process's VmHWM (peak resident) and VmRSS (resident now) from
/proc/self/status, in MB:

- at the start, after the imports;
- after each call of a set-up loader (`data.load_dataset`,
  `data.load_knowledge_base`, `retrieval.KnowledgeBase`,
  `model.load_checkpoint`) and after the whole set-up;
- after the pass's program calls (`training.train_fold`,
  `training.run_ablation_suite`, `training.predict_probs`,
  `retrieval.retrieve_batch`; a function called many times is one line, read
  after its last call) and after the whole pass. Only the workload's own calls
  are read, not those made inside another measured call (the validation
  `predict_probs` inside `train_fold`, say).

It prints one line per phase, then one JSON object as the last line. It exits
1 if the pass had a failed operation.
"""

import functools
import json
import os
import sys
import tempfile
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

# the program calls after which memory is read, as (module, attribute)
SETUP_CALLS = (("data", "load_dataset"), ("data", "load_knowledge_base"),
               ("model", "load_checkpoint"))
PASS_CALLS = (("training", "train_fold"), ("training", "run_ablation_suite"),
              ("training", "predict_probs"), ("retrieval", "retrieve_batch"))


def memory_mb() -> dict:
    values = {}
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                values[key] = round(int(rest.split()[0]) / 1024.0, 1)  # kB
    return values


def measure(name: str, inputs: dict) -> None:
    """Runs in the fresh process: set-up and one pass, reading memory after
    each phase; prints the phases and exits 1 on a failed operation."""
    import freqfuse.data as data
    import freqfuse.model as model
    import freqfuse.retrieval as retrieval
    import freqfuse.training as training
    import workloads

    modules = {"data": data, "model": model, "retrieval": retrieval, "training": training}
    phases = {}  # name -> {"calls", "VmHWM", "VmRSS"}, in first-call order

    def read(phase: str) -> None:
        entry = phases.setdefault(phase, {"calls": 0})
        entry["calls"] += 1
        entry.update(memory_mb())

    depth = 0  # measured calls under way; one made inside another is not read

    def after(phase: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth -= 1
            if depth == 0:
                read(phase)
            return result

        return wrapper

    for module, attr in SETUP_CALLS + PASS_CALLS:
        fn = getattr(modules[module], attr)
        setattr(modules[module], attr, after(f"{module}.{attr}", fn))
    kb_init = retrieval.KnowledgeBase.__init__
    retrieval.KnowledgeBase.__init__ = after("retrieval.KnowledgeBase", kb_init)

    workload = workloads.WORKLOADS[name]
    read("start")
    state = workload.setup(inputs)
    read("setup")
    result = workload.run_pass(state)
    read("pass")
    for phase, entry in phases.items():
        calls = f" (x{entry['calls']})" if entry["calls"] > 1 else ""
        print(f"{phase + calls:36s} VmHWM {entry['VmHWM']:7.1f}  VmRSS {entry['VmRSS']:7.1f}")
    print(json.dumps({"workload": name, "seed": inputs["seed"], "unit": "MB",
                      "failed": result.failed, "failures": result.failures,
                      "phases": phases}))
    sys.stdout.flush()
    sys.exit(1 if result.failed else 0)


def main(argv) -> int:
    if len(argv) != 2 or not argv[1].lstrip("-").isdigit():
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    import workloads

    name, seed = argv[0], int(argv[1])
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="memory-phases-") as workdir:
        inputs = workloads.WORKLOADS[name].generate(seed, workdir)
        process = get_context("spawn").Process(target=measure, args=(name, inputs))
        process.start()
        process.join()
    return process.exitcode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
