"""Seeded benchmark inputs: WAV mixes, the training corpus and the watch model.

Every WAV is built with cryalert.synth.synth_clip and wav_io.encode_wav;
the stereo, 24-bit and truncated variants are byte-level edits of
encode_wav output.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from cryalert import infer_alert, optim_train, synth, tensor_nn, wav_io

ALERT_CLASSES = ("tone", "am")
THRESHOLD = 0.9

# One cycle of 40 files.  Mostly canonical 16 kHz mono; 48 kHz mono and
# stereo exercise resample and the channel downmix; the last three kinds
# must be skipped (44.1 kHz is not an integer decimation to 16 kHz).
MIX = {"mono16k": 29, "mono48k": 4, "stereo48k": 4,
       "rate44k": 1, "depth24": 1, "truncated": 1}
INVALID = ("rate44k", "depth24", "truncated")
CYCLE = sum(MIX.values())

_HEADER = 44  # encode_wav writes a canonical 44-byte header


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _clip(kind, rng, rate):
    return synth.synth_clip(kind, rng, rate, rate)


def _stereo(left, right):
    """Interleave two mono encode_wav outputs into one 2-channel WAV."""
    a = np.frombuffer(wav_io.encode_wav(left)[_HEADER:], dtype="<i2")
    b = np.frombuffer(wav_io.encode_wav(right)[_HEADER:], dtype="<i2")
    data = np.stack([a, b], axis=1).tobytes()
    rate = left.sample_rate
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, 1, 2, rate, rate * 4, 4, 16, b"data", len(data))
    return header + data


def _depth24(clip):
    """A well-formed 24-bit PCM WAV of the clip (cryalert reads only 16-bit)."""
    pcm = np.frombuffer(wav_io.encode_wav(clip)[_HEADER:], dtype="<i2").astype("<i4") << 8
    data = pcm.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    rate = clip.sample_rate
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, 1, 1, rate, rate * 3, 3, 24, b"data", len(data))
    return header + data


def wav_mix(seed, count):
    """Yield `count` files in a seeded order as (name, kind, class, bytes)."""
    rng = _rng(seed, 1)
    cycle = [kind for kind, n in MIX.items() for _ in range(n)]
    kinds = [cycle[i % len(cycle)] for i in range(count)]
    kinds = [kinds[i] for i in rng.permutation(count)]
    for i, kind in enumerate(kinds):
        label = synth.CLASSES[rng.integers(len(synth.CLASSES))]
        if kind == "mono16k":
            data = wav_io.encode_wav(_clip(label, rng, 16000))
        elif kind == "mono48k":
            data = wav_io.encode_wav(_clip(label, rng, 48000))
        elif kind == "stereo48k":
            data = _stereo(_clip(label, rng, 48000), _clip(label, rng, 48000))
        elif kind == "rate44k":
            data = wav_io.encode_wav(_clip(label, rng, 44100))
        elif kind == "depth24":
            data = _depth24(_clip(label, rng, 16000))
        else:  # truncated: the data chunk claims more bytes than follow
            full = wav_io.encode_wav(_clip(label, rng, 16000))
            data = full[:_HEADER + (len(full) - _HEADER) // 2]
        yield f"clip_{i:05d}.wav", kind, label, data


def settle(root):
    """fsync every file and directory under root, so that the writeback of
    freshly made inputs does not land inside a timed region."""
    for path in [root, *root.rglob("*")]:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def corpus(root, seed, per_class):
    """The directory-per-class synthetic corpus (synth_clip + encode_wav)."""
    return synth.generate_corpus(root, per_class=per_class, seed=seed)


def train_watch_model(root, path):
    """Train and save the model the watch workloads serve.

    It uses a fixed corpus seed so every invocation serves the same
    weights, a small corpus and a few epochs at a raised learning rate:
    the model only has to be confident, not the paper's model.
    """
    corpus(root, seed=20230728, per_class=24)
    dataset = wav_io.load_dataset(root, seed=42)
    net = tensor_nn.build_network(len(dataset.class_names), seed=42)
    cfg = optim_train.TrainConfig(epochs=4, batch_size=16, lr=1e-3, seed=42)
    optim_train.train(net, dataset, cfg)
    infer_alert.save_model(net, infer_alert.StftConfig(), dataset.class_names, path,
                           timestamp=0.0)


def reference(model_path, paths):
    """In-process (predicted_label, alert) for each WAV path."""
    model = infer_alert.load_model(model_path)
    out = {}
    for path in paths:
        probs = infer_alert.predict(model.network, model.stft_config,
                                    wav_io.load_wav(path), model.class_names)
        event = infer_alert.decide_alert(probs, ALERT_CLASSES, THRESHOLD, source=str(path))
        out[path.name] = (event.predicted_label, event.alert)
    return out
