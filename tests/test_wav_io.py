import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryalert.errors import (
    ConfigError,
    CryalertError,
    DatasetError,
    FormatError,
    UnsupportedCodecError,
    UnsupportedDepthError,
    UnsupportedRatioError,
)
from cryalert.wav_io import (
    DEFAULT_CLIP_SAMPLES,
    AudioClip,
    canonical_clip,
    design_lowpass,
    encode_wav,
    load_dataset,
    load_wav,
    parse_wav,
    replace_file,
    resample,
    write_wav,
)
from cryalert.spectro import export_spectrogram

from conftest import dft_direct, make_wav_bytes, mutated


class TestParse:
    def test_canonical_pcm16(self):
        clip = parse_wav(make_wav_bytes([0, 16384, -16384], rate=16000))
        assert clip.sample_rate == 16000
        assert np.array_equal(clip.samples, [0.0, 0.5, -0.5])
        assert clip.samples.dtype == np.float64

    def test_full_scale_bounds(self):
        clip = parse_wav(make_wav_bytes([32767, -32768]))
        assert clip.samples[0] == 32767 / 32768
        assert clip.samples[1] == -1.0

    def test_stereo_downmix_per_frame_mean(self):
        clip = parse_wav(make_wav_bytes([1000, 3000, -2000, 2000], channels=2))
        assert np.array_equal(clip.samples, [2000 / 32768, 0.0])

    @pytest.mark.parametrize("channels", [1, 2, 3, 8, 9])
    def test_downmix_matches_mean_oracle(self, channels):
        # full-scale extremes included: the per-frame mean of the
        # interleaved ints, scaled, bit for bit
        rng = np.random.default_rng(channels)
        ints = rng.integers(-32768, 32768, 300 * channels)
        ints[:2 * channels] = np.repeat([-32768, 32767], channels)
        clip = parse_wav(make_wav_bytes(ints, channels=channels))
        oracle = ints.astype(np.float64).reshape(-1, channels).mean(axis=1) / 32768
        assert np.array_equal(clip.samples, oracle)

    def test_unknown_chunks_skipped(self):
        clip = parse_wav(make_wav_bytes([123], extra_chunk=b"\x07\x08\x09"))
        assert len(clip) == 1

    def test_float_codec_rejected(self):
        with pytest.raises(UnsupportedCodecError):
            parse_wav(make_wav_bytes([0], format_code=3))

    def test_adpcm_codec_rejected(self):
        with pytest.raises(UnsupportedCodecError):
            parse_wav(make_wav_bytes([0], format_code=2))

    def test_wrong_depth_rejected(self):
        with pytest.raises(UnsupportedDepthError):
            parse_wav(make_wav_bytes([0], bits=8))

    @pytest.mark.parametrize("blob", [
        b"",
        b"RIFF",
        b"OGGS" + b"\x00" * 40,
        b"RIFF\x24\x00\x00\x00WEBP" + b"\x00" * 20,
    ])
    def test_non_riff_rejected(self, blob):
        with pytest.raises(FormatError):
            parse_wav(blob)

    def test_truncated_data_chunk_rejected(self):
        good = make_wav_bytes([1, 2, 3, 4])
        with pytest.raises(FormatError):
            parse_wav(good[:-3])

    def test_missing_fmt_rejected(self):
        data = b"\x01\x00"
        blob = b"RIFF" + b"\x00\x00\x00\x00" + b"WAVE" + b"data" + len(data).to_bytes(4, "little") + data
        with pytest.raises(FormatError):
            parse_wav(blob)

    def test_missing_data_rejected(self):
        import struct
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        blob = b"RIFF" + b"\x00\x00\x00\x00" + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        with pytest.raises(FormatError):
            parse_wav(blob)

    def test_partial_frame_rejected(self):
        good = make_wav_bytes([5, 6], channels=2)  # one stereo frame
        # shrink data chunk to an odd sample count for 2 channels
        bad = make_wav_bytes([5], channels=2)
        with pytest.raises(FormatError):
            parse_wav(bad)
        parse_wav(good)


# stereo, 48 kHz, with an odd-length unknown chunk: mutations reach chunk skipping,
# padding and the downmix, not only the header checks
VALID_WAV = make_wav_bytes(range(-40, 40), rate=48000, channels=2, extra_chunk=b"abc")


class TestParseFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:]),
        mutated(VALID_WAV),
    ))
    def test_any_bytes_decode_or_raise_cryalert_error(self, data):
        try:
            clip = parse_wav(data)
        except CryalertError:
            return
        assert isinstance(clip, AudioClip)
        assert np.all(np.abs(clip.samples) <= 1.0)


class TestRoundTrip:
    def test_known_bytes(self):
        clip = parse_wav(make_wav_bytes([0, 100, -32768, 32767], rate=8000))
        again = parse_wav(encode_wav(clip))
        assert again.sample_rate == 8000
        assert np.array_equal(again.samples, clip.samples)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=200))
    def test_any_int16_sequence(self, ints):
        clip = AudioClip(np.array(ints, dtype=np.float64) / 32768.0, 16000)
        again = parse_wav(encode_wav(clip))
        assert np.array_equal(again.samples, clip.samples)

    def test_file_io(self, tmp_path):
        clip = AudioClip(np.linspace(-0.5, 0.5, 64), 16000)
        path = tmp_path / "x.wav"
        write_wav(clip, path)
        again = parse_wav(path.read_bytes())
        assert np.allclose(again.samples, clip.samples, atol=1 / 32768)
        assert np.array_equal(load_wav(path).samples, again.samples)

    def test_device_or_directory_not_read(self, tmp_path):
        # /dev/null ends at once, so a regression fails here rather than
        # hanging; test_cli runs the FIFO and /dev/zero in bounded children
        (tmp_path / "null.wav").symlink_to("/dev/null")
        (tmp_path / "dir.wav").mkdir()
        for name in ("null.wav", "dir.wav"):
            with pytest.raises(FormatError, match="^not a regular file$"):
                load_wav(tmp_path / name)


# every writer of the program's output files, each through replace_file
WRITERS = {
    "wav": lambda path: write_wav(AudioClip(np.linspace(-0.5, 0.5, 64), 16000), path),
    "csv": lambda path: export_spectrogram(np.arange(6.0).reshape(2, 3), path, "csv"),
    "pgm": lambda path: export_spectrogram(np.arange(6.0).reshape(2, 3), path, "pgm"),
}


class TestReplaceFile:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"old contents")

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left"):
            WRITERS[kind](path)
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == [path.name]  # no temporary file left

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_directory_synced_after_the_file(self, tmp_path, monkeypatch, kind):
        # the rename is durable only once the directory holding it is synced
        synced, fsync = [], os.fsync

        def record(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        WRITERS[kind](tmp_path / f"out.{kind}")
        assert synced == [False, True]

    def test_failed_directory_sync_keeps_the_new_file(self, tmp_path, monkeypatch):
        # the temporary file is already renamed, so nothing is unlinked
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        fsync = os.fsync

        def directory_fails(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(5, "Input/output error")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", directory_fails)
        with pytest.raises(OSError, match="Input/output error"):
            replace_file(path, [b"new ", b"contents"])
        assert path.read_bytes() == b"new contents"
        assert os.listdir(tmp_path) == [path.name]


class TestAudioClip:
    def test_rejects_2d(self):
        with pytest.raises(FormatError):
            AudioClip(np.zeros((4, 2)), 16000)

    def test_rejects_out_of_range(self):
        for bad in (1.5, -1.5, np.nan, np.inf):
            with pytest.raises(FormatError):
                AudioClip(np.array([0.0, bad]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(FormatError):
            AudioClip(np.zeros(4), 0)

    def test_duration(self):
        assert AudioClip(np.zeros(8000), 16000).duration == 0.5


class TestResample:
    def test_same_rate_identity(self):
        clip = AudioClip(np.linspace(-1, 1, 100), 16000)
        out = resample(clip, 16000)
        assert out is clip

    def test_non_integer_ratio_rejected(self):
        clip = AudioClip(np.zeros(1000), 44100)
        with pytest.raises(UnsupportedRatioError):
            resample(clip, 16000)

    def test_upsample_rejected(self):
        clip = AudioClip(np.zeros(1000), 16000)
        with pytest.raises(UnsupportedRatioError):
            resample(clip, 48000)

    def test_output_length_and_rate(self):
        clip = AudioClip(np.zeros(48000), 48000)
        out = resample(clip, 16000)
        assert out.sample_rate == 16000
        assert len(out) == 16000
        assert len(resample(AudioClip(np.zeros(48001), 48000), 16000)) == 16001

    @pytest.mark.parametrize("rate", [32000, 48000, 96000, 16000 * 127])
    def test_matches_convolve_oracle(self, rate):
        # polyphase decimation computes the kept outputs of the full
        # "same"-mode filter and nothing else
        factor = rate // 16000
        taps = design_lowpass(rate, 0.45 * 16000)
        rng = np.random.default_rng(factor)
        lengths = [127, 128, 129, 47999, 48000, 48001, 40 * 127 * factor + 5]
        lengths += [k * factor + d for k in (127, 500) for d in (-1, 0, 1)]
        for n in lengths:
            x = rng.uniform(-1, 1, n)
            out = resample(AudioClip(x, rate), 16000).samples
            oracle = np.clip(np.convolve(x, taps, mode="same")[::factor], -1, 1)
            assert len(out) == len(oracle), n
            assert np.max(np.abs(out - oracle)) <= 1e-14, n

    @pytest.mark.parametrize("rate", [32000, 48000, 16000 * 127, 16000 * 200])
    def test_output_length_is_ceil(self, rate):
        factor = rate // 16000
        for n in range(0, 301):
            out = resample(AudioClip(np.full(n, 0.5), rate), 16000)
            assert len(out) == -(-n // factor), n

    def test_hostile_rate_memory_bounded(self):
        # a header may claim any rate up to 2**32 - 1; the filter matrices
        # and the padded copy must not scale with more than the factor
        tracemalloc.start()
        try:
            out = resample(AudioClip(np.zeros(1000), 16000 * 2**18), 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 1
        assert peak < 8 * 2**20

    def test_unit_dc_gain(self):
        taps = design_lowpass(48000, 0.45 * 16000)
        assert len(taps) == 127
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_constant_passes_through(self):
        clip = AudioClip(np.full(48000, 0.5), 48000)
        out = resample(clip, 16000)
        interior = out.samples[64:-64]
        assert np.max(np.abs(interior - 0.5)) < 1e-12

    def test_sine_keeps_dominant_bin(self):
        # 1000 Hz lives in bin 16 of a 256-point DFT at 16 kHz; check the
        # decimated signal against a natively generated reference
        t48 = np.arange(48000) / 48000
        out = resample(AudioClip(0.25 * np.sin(2 * np.pi * 1000 * t48), 48000), 16000)
        native = 0.25 * np.sin(2 * np.pi * 1000 * np.arange(16000) / 16000)
        seg = out.samples[4096:4096 + 256]
        ref = native[4096:4096 + 256]
        assert np.abs(dft_direct(seg)[:129]).argmax() == 16
        assert np.abs(dft_direct(ref)[:129]).argmax() == 16

    def test_output_in_range(self):
        rng = np.random.default_rng(5)
        clip = AudioClip(rng.uniform(-1, 1, 48000), 48000)
        out = resample(clip, 16000)
        assert np.max(np.abs(out.samples)) <= 1.0


class TestCanonicalClip:
    def test_pad(self):
        clip = AudioClip(np.ones(10) * 0.25, 16000)
        out = canonical_clip(clip)
        assert (len(out), out.sample_rate) == (DEFAULT_CLIP_SAMPLES, 16000)
        assert np.array_equal(out.samples[:10], clip.samples)
        assert np.array_equal(out.samples[10:], np.zeros(DEFAULT_CLIP_SAMPLES - 10))

    def test_truncate(self):
        clip = AudioClip(np.arange(20000) / 32768.0, 16000)
        out = canonical_clip(clip)
        assert np.array_equal(out.samples, clip.samples[:DEFAULT_CLIP_SAMPLES])

    def test_identity(self):
        clip = AudioClip(np.zeros(DEFAULT_CLIP_SAMPLES, dtype=np.float32), 16000)
        assert canonical_clip(clip) is clip

    def test_resamples_before_cutting(self):
        # 2 s at 48 kHz: decimate first, so the kept second is the first one
        clip = AudioClip(np.random.default_rng(3).uniform(-0.5, 0.5, 96000), 48000)
        out = canonical_clip(clip)
        oracle = resample(clip, 16000).samples[:DEFAULT_CLIP_SAMPLES].astype(np.float32)
        assert out.samples.dtype == np.float32
        assert np.array_equal(out.samples, oracle)

    def test_empty_clip_pads_to_silence(self):
        for rate in (16000, 48000):
            out = canonical_clip(AudioClip(np.zeros(0), rate))
            assert np.array_equal(out.samples, np.zeros(DEFAULT_CLIP_SAMPLES))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3 * DEFAULT_CLIP_SAMPLES), st.sampled_from([16000, 48000]))
    def test_always_exact_length(self, n, rate):
        out = canonical_clip(AudioClip(np.zeros(n), rate))
        assert (len(out), out.sample_rate) == (DEFAULT_CLIP_SAMPLES, 16000)


def _write_corpus(root, spec):
    """spec: {class_name: [arrays of int16]}"""
    for name, clips in spec.items():
        d = root / name
        d.mkdir(parents=True)
        for i, ints in enumerate(clips):
            (d / f"{i:03d}.wav").write_bytes(make_wav_bytes(ints, rate=16000))


class TestLoadDataset:
    def test_labels_follow_sorted_dirs(self, tmp_path):
        _write_corpus(tmp_path, {
            "zebra": [[1] * 300],
            "alpha": [[2] * 300, [3] * 300],
        })
        ds = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0))
        assert ds.class_names == ["alpha", "zebra"]
        assert sorted(ds.labels) == [0, 0, 1]

    def test_split_sizes_floor_remainder_to_train(self, tmp_path):
        _write_corpus(tmp_path, {
            "a": [[0] * 64] * 50,
            "b": [[0] * 64] * 50,
        })
        ds = load_dataset(tmp_path)
        assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [80, 10, 10]
        covered = sorted(i for s in ds.splits.values() for i in s)
        assert covered == list(range(100))

    def test_deterministic_for_seed(self, tmp_path):
        _write_corpus(tmp_path, {
            "a": [[i] * 64 for i in range(8)],
            "b": [[-i] * 64 for i in range(8)],
        })
        a = load_dataset(tmp_path, seed=3)
        b = load_dataset(tmp_path, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.samples, b.samples)
        c = load_dataset(tmp_path, seed=4)
        assert list(a.labels) != list(c.labels)

    def test_clips_standardized(self, tmp_path):
        _write_corpus(tmp_path, {"a": [[1] * 10], "b": [[1] * (DEFAULT_CLIP_SAMPLES + 999)]})
        ds = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0))
        assert ds.samples.shape == (2, DEFAULT_CLIP_SAMPLES)
        padded = np.zeros(DEFAULT_CLIP_SAMPLES, dtype=np.float32)
        padded[:10] = 1 / 32768
        row = {int(label): x for label, x in zip(ds.labels, ds.samples)}
        assert np.array_equal(row[0], padded)
        assert np.array_equal(row[1], np.full(DEFAULT_CLIP_SAMPLES, 1 / 32768, np.float32))

    def test_rows_are_canonical_clips(self, tmp_path):
        # one file per class, so a row's label names its file
        rng = np.random.default_rng(11)
        spec = {"a": (16000, 1, 9000), "b": (16000, 2, 16000), "c": (16000, 3, 20000),
                "d": (48000, 1, 50000), "e": (48000, 2, 30000)}
        for name, (rate, channels, frames) in spec.items():
            (tmp_path / name).mkdir()
            ints = rng.integers(-32768, 32768, frames * channels)
            (tmp_path / name / "x.wav").write_bytes(make_wav_bytes(ints, rate, channels))
        ds = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0))
        assert ds.samples.dtype == np.float32
        assert ds.samples.shape == (len(spec), DEFAULT_CLIP_SAMPLES)
        assert ds.samples.flags.c_contiguous
        for label, x in zip(ds.labels, ds.samples):
            path = tmp_path / ds.class_names[label] / "x.wav"
            assert np.array_equal(x, canonical_clip(load_wav(path)).samples)

    def test_float32_rows_are_exact(self, tmp_path):
        # the mean of 1, 2, 4 or 8 int16 channels is k / 2**m with k below
        # 2**18, so float32 holds the float64 decoder's value exactly
        rng = np.random.default_rng(12)
        data = {}
        for channels in (1, 2, 4, 8):
            ints = rng.integers(-32768, 32768, (DEFAULT_CLIP_SAMPLES, channels))
            ints[:2] = [[-32768], [32767]]
            data[f"c{channels}"] = make_wav_bytes(ints.ravel(), 16000, channels)
            (tmp_path / f"c{channels}").mkdir()
            (tmp_path / f"c{channels}" / "x.wav").write_bytes(data[f"c{channels}"])
        ds = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0))
        for label, x in zip(ds.labels, ds.samples):
            exact = parse_wav(data[ds.class_names[label]]).samples
            assert exact.dtype == np.float64
            assert np.array_equal(x.astype(np.float64), exact)

    def test_memory_is_one_float32_array(self, tmp_path):
        # the dataset's bytes are its (n, 16000) float32 rows, plus a fixed
        # allowance for one file's decode: float64 storage would need twice that
        n = 40
        rng = np.random.default_rng(13)
        for i in range(n):
            d = tmp_path / "ab"[i % 2]
            d.mkdir(exist_ok=True)
            write_wav(AudioClip(rng.uniform(-0.5, 0.5, DEFAULT_CLIP_SAMPLES), 16000), d / f"{i}.wav")
        tracemalloc.start()
        try:
            ds = load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.samples.nbytes == n * DEFAULT_CLIP_SAMPLES * 4
        assert peak < 1.3 * ds.samples.nbytes + 2**20

    def test_empty_class_dir_rejected(self, tmp_path):
        _write_corpus(tmp_path, {"a": [[0] * 16]})
        (tmp_path / "empty").mkdir()
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(tmp_path)

    def test_single_class_rejected(self, tmp_path):
        _write_corpus(tmp_path, {"only": [[0] * 16]})
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_bad_ratios_rejected(self, tmp_path):
        _write_corpus(tmp_path, {"a": [[0] * 16], "b": [[0] * 16]})
        nan, inf = float("nan"), float("inf")
        for ratios in [(0.5, 0.2, 0.2), (0.5, nan, 0.5), (nan, 0.0, 0.0), (inf, 0.0, 0.0)]:
            with pytest.raises(ConfigError):
                load_dataset(tmp_path, split_ratios=ratios)

    def test_malformed_file_names_path(self, tmp_path):
        _write_corpus(tmp_path, {"a": [[0] * 16], "b": [[0] * 16]})
        bad = tmp_path / "a" / "broken.wav"
        bad.write_bytes(b"RIFFxxxxJUNK")
        with pytest.raises(FormatError, match="broken.wav"):
            load_dataset(tmp_path)

    def test_device_names_path(self, tmp_path):
        _write_corpus(tmp_path, {"a": [[0] * 16], "b": [[0] * 16]})
        (tmp_path / "b" / "null.wav").symlink_to("/dev/null")
        with pytest.raises(FormatError, match="null.wav: not a regular file"):
            load_dataset(tmp_path)

    def test_unsupported_rate_names_path(self, tmp_path):
        # the file parses; only its conversion to the canonical rate fails
        _write_corpus(tmp_path, {"a": [[0] * 16], "b": [[0] * 16]})
        (tmp_path / "b" / "cd.wav").write_bytes(make_wav_bytes([0] * 441, rate=44100))
        with pytest.raises(UnsupportedRatioError, match="cd.wav: cannot resample 44100 Hz"):
            load_dataset(tmp_path)
