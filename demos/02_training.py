"""A small end-to-end training run.

Generates a reduced synthetic corpus (12 clips per class), trains the
CNN for a few epochs and prints the per-epoch table plus the confusion
matrix on the validation split.  Takes a few seconds on a laptop.
"""

import tempfile
from pathlib import Path

from cryalert import TrainConfig, build_network, evaluate, load_dataset, train
from cryalert.optim_train import split_arrays
from cryalert.synth import generate_corpus

root = Path(tempfile.mkdtemp(prefix="cryalert_train_")) / "corpus"
written = generate_corpus(root, per_class=12, seed=7)
print(f"synthesized {len(written)} clips under {root}")

dataset = load_dataset(root, split_ratios=(0.8, 0.1, 0.1), seed=42)
sizes = {name: len(idx) for name, idx in dataset.splits.items()}
print(f"classes: {dataset.class_names}")
print(f"splits:  {sizes}\n")

net = build_network(len(dataset.class_names), seed=42)
print(f"network: {sum(p.size for p in net.parameters()):,} parameters")

cfg = TrainConfig(epochs=5, batch_size=8, lr=1e-3, seed=42)
report = train(net, dataset, cfg)
print(report.to_text())

val_x, val_y = split_arrays(dataset, "val")
_, _, matrix = evaluate(net, val_x, val_y, dataset.class_names)
print("\nvalidation confusion matrix (rows true, columns predicted):")
print(matrix.to_text())
