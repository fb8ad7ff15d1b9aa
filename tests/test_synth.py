import os
import stat

import numpy as np
import pytest

from cryalert.errors import ConfigError
from cryalert.rng import STREAM_SYNTH, philox_stream
from cryalert.spectro import stft_magnitude
from cryalert.synth import CLASSES, generate_corpus, synth_clip
from cryalert.wav_io import encode_wav, load_wav


def interior_peak_bins(samples):
    spec = stft_magnitude(samples)
    # edge frames see the zero padding of short windows, so skip them
    return spec[2:-2].argmax(axis=1)


class TestSynthClip:
    def test_all_kinds_in_range(self):
        rng = np.random.default_rng(0)
        for kind in CLASSES:
            clip = synth_clip(kind, rng)
            assert clip.samples.shape == (16000,)
            assert clip.samples.dtype == np.float64
            assert clip.sample_rate == 16000
            assert np.all(np.abs(clip.samples) <= 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_clip("whale", np.random.default_rng(0))

    def test_tone_sits_at_440(self):
        s = synth_clip("tone", np.random.default_rng(1))
        peaks = interior_peak_bins(s)
        # 440 Hz on a 256-point fft at 16 kHz lands at bin 440/62.5 = 7.04
        assert np.all(peaks == 7)

    def test_am_carrier_at_1k(self):
        s = synth_clip("am", np.random.default_rng(2))
        peaks = interior_peak_bins(s)
        assert np.all(peaks == 16)

    def test_chirp_sweeps_upward(self):
        s = synth_clip("chirp", np.random.default_rng(3))
        peaks = interior_peak_bins(s)
        assert peaks[-1] > peaks[0]
        # monotone apart from bin quantization
        diffs = np.diff(peaks.astype(np.int64))
        assert np.all(diffs >= -1)
        assert peaks[0] >= 3  # 300 Hz start
        assert peaks[-1] <= 50  # 3000 Hz end

    def test_noise_is_broadband(self):
        s = synth_clip("noise", np.random.default_rng(4))
        spec = stft_magnitude(s)
        # no single bin dominates the way a tone does
        ratio = spec.max() / np.median(spec[spec > 0])
        assert ratio < 50


class TestGenerateCorpus:
    def test_layout_and_counts(self, tmp_path):
        written = generate_corpus(tmp_path, per_class=3, seed=7)
        assert len(written) == 12
        for kind in CLASSES:
            files = sorted((tmp_path / kind).glob("*.wav"))
            assert len(files) == 3
            assert files[0].name == f"{kind}_0000.wav"

    def test_clips_decode_and_standard_length(self, tmp_path):
        generate_corpus(tmp_path, per_class=1, seed=7)
        for kind in CLASSES:
            clip = load_wav(next((tmp_path / kind).glob("*.wav")))
            assert clip.sample_rate == 16000
            assert len(clip) == 16000

    def test_same_seed_bitwise_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(a, per_class=2, seed=13)
        generate_corpus(b, per_class=2, seed=13)
        for kind in CLASSES:
            for fa, fb in zip(sorted((a / kind).iterdir()), sorted((b / kind).iterdir())):
                assert fa.read_bytes() == fb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(a, per_class=1, seed=13)
        generate_corpus(b, per_class=1, seed=14)
        same = all(
            (a / kind / f"{kind}_0000.wav").read_bytes()
            == (b / kind / f"{kind}_0000.wav").read_bytes()
            for kind in CLASSES
        )
        assert not same

    def test_one_directory_sync_per_class_after_its_files(self, tmp_path, monkeypatch):
        # each file is fsynced before its rename, each class directory once,
        # after its last file is renamed; the files are write_wav's bytes
        synced, fsync = [], os.fsync

        def record(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        written = generate_corpus(tmp_path, per_class=3, seed=7)
        monkeypatch.undo()
        inodes = [os.stat(path).st_ino for path in written]
        want = []
        for k, kind in enumerate(CLASSES):
            want += [(ino, False) for ino in inodes[3 * k:3 * k + 3]]
            want.append((os.stat(tmp_path / kind).st_ino, True))
        assert synced == want
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            [*CLASSES, *(p.name for p in written)])  # no temporary file left
        rng = philox_stream(7, STREAM_SYNTH)
        for path in written[:3]:
            assert path.read_bytes() == encode_wav(synth_clip("am", rng))

    def test_per_class_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_corpus(tmp_path, per_class=0, seed=7)
