"""Train the reweighted method once and summarize how the weights split
between rule-consistent and label-flipped source examples over time."""

import sys

import numpy as np

from metaweight.backbones import ModelState
from metaweight.data import FewShotSpec, ShiftSpec, gen_synthetic_shift, rule_label, sample_few_shot
from metaweight.experiment import BackboneConfig
from metaweight.stats import accuracy, predict
from metaweight.training import TrainSpec, run_training, write_weight_trace
from metaweight.vectors import RngState, derive_seed


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    shift = ShiftSpec(flip_fraction=0.5, n_source=8000, n_target=600)
    source, target_pool = gen_synthetic_shift(shift, RngState(derive_seed(seed, "data")))
    t_fs, test = sample_few_shot(target_pool, FewShotSpec(k=50, seed=derive_seed(seed, "split")))

    arch = BackboneConfig(embedding_dim=32).arch(2, derive_seed(seed, "embedding"))
    model = ModelState(arch.init_params(derive_seed(seed, "init")), arch)
    spec = TrainSpec(method="mwr", epochs=20, alpha=0.05, seed=derive_seed(seed, "train"), batch_size=16)
    report = run_training(spec, model, source.examples, t_fs.examples)

    consistent = np.array(
        [ex.label == rule_label(shift, ex.text_a, ex.text_b) for ex in source.examples]
    )
    trace = report.weight_trace
    steps, weights, flags = trace.step, trace.weight, consistent[trace.example_id]

    steps_per_epoch = steps.max() // spec.epochs + 1
    print("epoch  mean weight (consistent)  mean weight (flipped)")
    for epoch in range(spec.epochs):
        window = (steps >= epoch * steps_per_epoch) & (steps < (epoch + 1) * steps_per_epoch)
        wc = weights[window & flags].mean()
        wf = weights[window & ~flags].mean()
        print(f"{epoch:5d}  {wc:24.3e}  {wf:21.3e}")

    acc = accuracy(predict(report.model, test.examples))
    print(f"\ntarget-test accuracy: {acc:.4f}")
    write_weight_trace(report.weight_trace, "weight_trace.csv")
    print("per-step trace written to weight_trace.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
