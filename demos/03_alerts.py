"""Prediction and alert emission.

Trains a quick model, saves and reloads it the way a deployment would,
then classifies fresh clips and shows the alert decision at two
thresholds.  Alert events are single-line JSON on stdout.
"""

import tempfile
from pathlib import Path

from cryalert import (
    TrainConfig,
    build_network,
    decide_alert,
    emit_alert,
    load_dataset,
    load_model,
    predict,
    save_model,
    synth_clip,
    train,
)
from cryalert.infer_alert import StdoutSink
from cryalert.rng import STREAM_SYNTH, philox_stream
from cryalert.spectro import StftConfig
from cryalert.synth import generate_corpus

work = Path(tempfile.mkdtemp(prefix="cryalert_alerts_"))
root = work / "corpus"
generate_corpus(root, per_class=12, seed=7)
dataset = load_dataset(root, seed=42)

net = build_network(len(dataset.class_names), seed=42)
report = train(net, dataset, TrainConfig(epochs=5, batch_size=8, lr=1e-3, seed=42))
print(f"trained {report.epochs_run} epochs, "
      f"final val accuracy {report.val_accuracy[-1]:.2f}")

model_path = work / "demo.cry"
save_model(net, StftConfig(), dataset.class_names, model_path)
loaded = load_model(model_path)
print(f"model saved and reloaded from {model_path}\n")

# tone and am stand in for the distress classes here
alert_classes = ("tone", "am")
sink = StdoutSink()
rng = philox_stream(123, STREAM_SYNTH)

for kind in ("tone", "noise", "am", "chirp"):
    clip = synth_clip(kind, rng)
    probs = predict(loaded.network, loaded.stft_config, clip, loaded.class_names)
    top = max(probs, key=probs.get)
    print(f"--- {kind} clip: predicted {top} ({probs[top]:.3f})")
    for threshold in (0.5, 0.99):
        event = decide_alert(probs, alert_classes, threshold,
                             source=f"{kind}_demo.wav")
        emit_alert(event, [sink])
