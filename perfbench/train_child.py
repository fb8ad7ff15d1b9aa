"""One train_synth operation, run by run.py in a fresh process.

Usage: python3 perfbench/train_child.py CORPUS EPOCHS SETUPS TRACE OUT

Times SETUPS rounds of load_dataset + build_network (the set-up a
`cryalert train` user waits for before the first step), then one
train() with the default hyperparameters and EPOCHS epochs on the last
round's dataset and network, timing each of its training steps.
Writes a JSON result to OUT and, when TRACE is 1, the spans to
OUT.spans.  cryalert is imported from the
checkout's src/ through PYTHONPATH, which run.py sets.
"""

import json
import sys
import time


def time_steps(net, optim_train):
    """Record each training step's seconds, from its train-mode forward to
    the end of its adam_step (the span the tracer calls
    optim_train.train_step), with one clock read at each end."""
    steps, opened = [], []
    forward, adam_step = net.forward, optim_train.adam_step

    def step_forward(images, train=False):
        if train and not opened:
            opened.append(time.perf_counter())
        return forward(images, train=train)

    def step_adam(*args, **kwargs):
        try:
            return adam_step(*args, **kwargs)
        finally:
            if opened:
                steps.append(time.perf_counter() - opened.pop())

    net.forward = step_forward
    optim_train.adam_step = step_adam
    return steps


def main(argv):
    corpus, epochs, setups, trace, out = argv
    tracer = None
    if trace == "1":
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    from cryalert import optim_train, tensor_nn, wav_io

    setup_s = []
    for _ in range(int(setups)):
        dataset = net = None  # free the previous round before timing the next
        start = time.perf_counter()
        dataset = wav_io.load_dataset(corpus, seed=42)
        net = tensor_nn.build_network(len(dataset.class_names), seed=42)
        setup_s.append(time.perf_counter() - start)

    cfg = optim_train.TrainConfig(epochs=int(epochs), batch_size=64, lr=1e-4, seed=42)
    steps = time_steps(net, optim_train)
    start = time.perf_counter()
    report = optim_train.train(net, dataset, cfg)
    train_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(out + ".spans")
    with open(out, "w") as fh:
        json.dump({"setup_s": setup_s, "train_s": train_s, "step_s": steps,
                   "train_clips": len(dataset.splits["train"]),
                   "epochs_run": report.epochs_run,
                   "test_accuracy": report.test_accuracy}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
