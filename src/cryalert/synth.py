"""Synthetic four-class audio corpus.

Each class has a distinct spectral signature: a 440 Hz tone, a
300->3000 Hz linear chirp, an 8 Hz amplitude-modulated 1 kHz carrier,
and uniform white noise.  Every clip gets a random amplitude and
phase, a 1% noise floor, and is written as one-second 16 kHz PCM16
WAV into a directory per class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import STREAM_SYNTH, philox_stream
from .wav_io import DEFAULT_SAMPLE_RATE, AudioClip, encode_wav, rename_into_place, sync_directory

CLASSES = ("am", "chirp", "noise", "tone")

TONE_HZ = 440.0
CHIRP_LO_HZ = 300.0
CHIRP_HI_HZ = 3000.0
AM_CARRIER_HZ = 1000.0
AM_RATE_HZ = 8.0
NOISE_FLOOR = 0.01


def synth_clip(kind: str, rng, sample_rate: int = DEFAULT_SAMPLE_RATE,
               num_samples: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
    """One clip of the given class, consuming draws from rng."""
    t = np.arange(num_samples) / sample_rate
    amp = rng.uniform(0.3, 0.9)
    if kind == "tone":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = amp * np.sin(2.0 * np.pi * TONE_HZ * t + phase)
    elif kind == "chirp":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        duration = num_samples / sample_rate
        sweep = (CHIRP_HI_HZ - CHIRP_LO_HZ) / (2.0 * duration)
        x = amp * np.sin(2.0 * np.pi * (CHIRP_LO_HZ * t + sweep * t * t) + phase)
    elif kind == "am":
        carrier_phase = rng.uniform(0.0, 2.0 * np.pi)
        mod_phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = (1.0 + 0.5 * np.sin(2.0 * np.pi * AM_RATE_HZ * t + mod_phase)) / 1.5
        x = amp * envelope * np.sin(2.0 * np.pi * AM_CARRIER_HZ * t + carrier_phase)
    elif kind == "noise":
        x = amp * rng.uniform(-1.0, 1.0, num_samples)
    else:
        raise ConfigError(f"unknown class {kind!r}, want one of {CLASSES}")
    x = x + NOISE_FLOOR * rng.uniform(-1.0, 1.0, num_samples)
    return AudioClip(np.clip(x, -1.0, 1.0), sample_rate)


def generate_corpus(root, per_class: int = 200, seed: int = 7) -> list[Path]:
    """Write per_class clips for each class under root/<class>/.

    Deterministic for a fixed seed: clips are drawn from the synth
    stream in (class, index) order.  Each file is written as write_wav
    writes it, but its directory is synced once, after its last file.
    """
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    root = Path(root)
    rng = philox_stream(seed, STREAM_SYNTH)
    written = []
    for kind in CLASSES:
        class_dir = root / kind
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            clip = synth_clip(kind, rng)
            path = class_dir / f"{kind}_{i:04d}.wav"
            rename_into_place(path, [encode_wav(clip)])
            written.append(path)
        sync_directory(class_dir)
    return written
