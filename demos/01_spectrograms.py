"""Waveforms to spectrogram images.

Synthesizes one clip per class, walks it through the STFT front end and
exports the spectrograms as PGM images and CSV grids into a temp
directory.
"""

import tempfile
from pathlib import Path

import numpy as np

from cryalert import export_spectrogram, stft_magnitude, synth_clip
from cryalert.rng import STREAM_SYNTH, philox_stream
from cryalert.spectro import FFT_LENGTH, FRAME_LENGTH, FRAME_STEP, NUM_BINS
from cryalert.synth import CLASSES

out_dir = Path(tempfile.mkdtemp(prefix="cryalert_spectro_"))
rng = philox_stream(7, STREAM_SYNTH)

print(f"STFT: frame {FRAME_LENGTH}, step {FRAME_STEP}, fft {FFT_LENGTH}, "
      f"{NUM_BINS} bins, periodic Hann window (fixed)")
print(f"writing to {out_dir}\n")

for kind in CLASSES:
    clip = synth_clip(kind, rng)
    spec = stft_magnitude(clip)
    peak_bin = int(np.argmax(spec.sum(axis=0)))
    peak_hz = peak_bin * clip.sample_rate / FFT_LENGTH

    export_spectrogram(spec, out_dir / f"{kind}.pgm", "pgm")
    export_spectrogram(spec, out_dir / f"{kind}.csv", "csv")

    print(f"{kind:>6}: {spec.shape[0]} frames x {spec.shape[1]} bins, "
          f"energy peak at bin {peak_bin} (~{peak_hz:.0f} Hz)")

print("\nopen the .pgm files in any image viewer; time runs down the rows")
