import json
import os
import sys

import numpy as np
import pytest

import layers
from tracer import Tracer, covered, self_times


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_coverage_over_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    a1 = tracer.open("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [-1, root, a, root]
    assert self_times(tracer.spans) == [3, 2, 1, 4]


def test_coverage_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 4), (2, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0


def test_groups_follow_steps_inside_a_fold():
    clock = FakeClock(range(100))
    tracer = layers.new_tracer()
    tracer.clock = clock
    fold = tracer.open(layers.FOLD)
    groups = []
    for name in ("model.init_model_params", "model.forward_batch", "losses.cross_entropy",
                 "model.forward_batch", "kernel.adam.adam_step", "training.evaluate_arrays"):
        index = tracer.open(name)
        tracer.close(index)
        groups.append(tracer.spans[index].group)
    tracer.close(fold)
    fold_group = tracer.spans[fold].group
    assert groups[0] == fold_group
    assert groups[1] == groups[2] != fold_group
    assert groups[3] == groups[4] != groups[1]
    assert groups[5] not in (fold_group, groups[3])


def _freqfuse_bindings():
    import freqfuse.kernel.tensor as tensor
    import freqfuse.retrieval as retrieval

    snapshot = {name: dict(vars(module)) for name, module in sys.modules.items()
                if name == "freqfuse" or name.startswith("freqfuse.")}
    for cls in (tensor.GradTape, tensor.Tensor, retrieval.KnowledgeBase):
        snapshot[cls.__qualname__] = dict(vars(cls))
    return snapshot


def _tiny_fold():
    from freqfuse.data import generate_synthetic
    from freqfuse.retrieval import KnowledgeBase
    import freqfuse.training as training

    manifest, samples, kb_entries = generate_synthetic(2, 10, 16, 0.1, seed=0)
    config = training.TrainConfig(max_epochs=2, hidden1=16, hidden2=8, batch_size=8,
                                  fusion_mode="freq_plus_knowledge")
    fold_ids = training.make_folds(samples, k=config.folds, seed=config.seed)
    return training.train_fold(manifest, samples, KnowledgeBase(kb_entries), config, fold_ids, 0)


def test_wrappers_are_removed_after_the_traced_run():
    import freqfuse.training as training

    before = _freqfuse_bindings()
    original_adam = training.adam_step
    tracer = layers.new_tracer()
    layers.install(tracer)
    try:
        assert training.adam_step is not original_adam
        assert training.adam_step.__wrapped__ is original_adam
        _tiny_fold()
    finally:
        tracer.unpatch_all()
    recorded = len(tracer.spans)
    assert recorded > 0
    after = _freqfuse_bindings()
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys()
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert changed == [], owner
    # an untraced run records nothing
    _tiny_fold()
    assert len(tracer.spans) == recorded


def test_traced_fold_yields_every_declared_per_layer_metric():
    tracer = layers.new_tracer()
    layers.install(tracer)
    try:
        result = _tiny_fold()
    finally:
        tracer.unpatch_all()
    m = layers.metrics(tracer, untraced_s=1.0, traced_s=1.1)
    with open(os.path.join(os.path.dirname(layers.__file__), "..", "BENCHMARK.json")) as fh:
        declared = [x["name"] for x in json.load(fh)["per_layer"]]
    assert sorted(declared) == sorted(m)
    assert m["training.steps"] == m["kernel.adam.adam_step.n"] == m["training.step_ms_n"]
    assert m["training.epochs"] == len(result.history)
    assert m["kernel.adam.param_count"] == sum(
        t.data.size for t in result.params.named().values())
    assert m["kernel.tensor.tape_records_per_step"] > 0
    assert m["trace.overhead"] == pytest.approx(0.1)
    # the phases and the fold's other direct children make up the fold exactly
    phases = sum(m[f"training.phase.{p}_ms"]
                 for p in ("forward", "loss", "backward", "optimizer", "eval", "other"))
    assert 0 <= m["training.fold_ms"] - phases <= m["training.fold_ms"] * 0.5
    assert np.isclose(m["training.phase.optimizer_ms"], m["kernel.adam.adam_step.ms"])
