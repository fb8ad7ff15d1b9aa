import dataclasses
import http.server
import io
import json
import logging
import os
import shutil
import socket
import ssl
import struct
import subprocess
import threading
import time
import tracemalloc
import urllib.error
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryalert import infer_alert, tensor_nn
from cryalert.errors import (
    ConfigError,
    CorruptModelError,
    ModelFileError,
    ModelVersionError,
    NotAModelError,
    TooShortError,
    UnsupportedRatioError,
)
from cryalert.infer_alert import (
    AlertEvent,
    CommandSink,
    HttpSink,
    StdoutSink,
    decide_alert,
    emit_alert,
    load_model,
    predict,
    save_model,
)
from cryalert.optim_train import split_arrays
from cryalert.rng import STREAM_INIT, philox_stream
from cryalert.spectro import FFT_LENGTH, FRAME_LENGTH, FRAME_STEP, StftConfig
from cryalert.tensor_nn import build_network, softmax
from cryalert.wav_io import AudioClip, load_dataset, load_wav

from conftest import make_wav_bytes, mutated, read_model_header, rewrite_model_header


def small_net(seed=3):
    net = build_network(4, seed=seed)
    net.set_norm_stats(0.12, 0.45)
    return net


NAMES = ["am", "chirp", "noise", "tone"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "m.cry"
    net = small_net()
    save_model(net, StftConfig(), NAMES, path, timestamp=1_700_000_000.0)
    return net, path


class TestSaveLoad:
    def test_round_trip_parameters_bitwise(self, saved):
        net, path = saved
        loaded = load_model(path)
        for a, b in zip(net.parameters(), loaded.network.parameters()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_parameters_read_into_one_array(self, saved):
        # one read fills one native float32 array that every parameter views:
        # no bytes object, slice or dtype copy of the parameter region is made
        _, path = saved
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        params = loaded.network.parameters()
        region = params[0].base
        assert region is not None
        assert all(p.base is region for p in params)
        assert all(p.dtype == np.float32 and p.dtype.isnative for p in params)
        assert peak < 1.5 * sum(p.nbytes for p in params)  # the isfinite mask adds 1/4

    def test_round_trip_metadata(self, saved):
        net, path = saved
        loaded = load_model(path)
        assert loaded.class_names == NAMES
        assert loaded.stft_config == StftConfig()
        assert loaded.network.norm_stats == net.norm_stats
        assert loaded.created == "2023-11-14T22:13:20Z"
        assert loaded.network.seed == 3

    def test_round_trip_logits_bitwise(self, saved):
        net, path = saved
        loaded = load_model(path)
        rng = philox_stream(99, 0)
        for _ in range(10):
            x = rng.uniform(0, 1, (1, 32, 32, 1)).astype(np.float32)
            a, _ = net.forward(x)
            b, _ = loaded.network.forward(x)
            assert np.array_equal(a, b)

    def test_load_draws_no_init_weights(self, saved, monkeypatch):
        # the stored arrays become the network's parameters; no Glorot draw
        # is made only to be overwritten
        streams = []
        real = tensor_nn.philox_stream

        def recording(seed, stream):
            streams.append(stream)
            return real(seed, stream)

        monkeypatch.setattr(tensor_nn, "philox_stream", recording)
        net, path = saved
        loaded = load_model(path)
        assert streams and STREAM_INIT not in streams
        rng = np.random.default_rng(4)
        for rate in (16000, 48000):
            clip = AudioClip(rng.uniform(-1, 1, rate), rate)
            assert (predict(loaded.network, loaded.stft_config, clip, NAMES)
                    == predict(net, StftConfig(), clip, NAMES))

    def test_source_date_epoch_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1735689600")
        net = small_net()
        p1, p2 = tmp_path / "a.cry", tmp_path / "b.cry"
        save_model(net, StftConfig(), NAMES, p1)
        save_model(net, StftConfig(), NAMES, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_model(p1).created == "2025-01-01T00:00:00Z"

    @pytest.mark.parametrize("value", ["abc", "nan", "1e20", "1.5", "-1", " 1", "٣",
                                       "9" * 30, str(2 ** 62)])
    def test_bad_source_date_epoch_is_config_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        path = tmp_path / "m.cry"
        with pytest.raises(ConfigError, match="SOURCE_DATE_EPOCH|out of range"):
            save_model(small_net(), StftConfig(), NAMES, path)
        assert not path.exists()

    def test_non_finite_parameter_not_saved(self, tmp_path):
        net = small_net()
        net.parameters()[-1][0] = np.nan
        path = tmp_path / "nan.cry"
        with pytest.raises(ConfigError, match="non-finite"):
            save_model(net, StftConfig(), NAMES, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_not_loaded(self, saved, tmp_path, value):
        # a valid CRC over a blob holding a NaN or infinity
        _, path = saved
        data = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", data, 8)
        struct.pack_into("<f", data, 12 + header_len, value)
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[12 + header_len:-4]))
        bad = tmp_path / "nan.cry"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError, match="non-finite"):
            load_model(bad)

    def test_class_name_count_checked(self, tmp_path):
        with pytest.raises(ConfigError):
            save_model(small_net(), StftConfig(), ["only", "three", "names"],
                       tmp_path / "m.cry")

    def test_duplicate_class_names_not_saved(self, tmp_path):
        # predict maps probabilities to names through a dict, so a repeated
        # name would silently merge two outputs
        path = tmp_path / "m.cry"
        with pytest.raises(ConfigError, match="duplicate"):
            save_model(small_net(), StftConfig(), ["am", "am", "noise", "tone"], path)
        assert not path.exists()

    @pytest.mark.parametrize("names, seed", [([0, 1, 2, 3], 3), (NAMES, True)],
                             ids=["int-class-names", "bool-seed"])
    def test_header_load_model_refuses_not_saved(self, tmp_path, names, seed):
        # load_model reads only str class names and an int seed: anything
        # else would make a file that cannot be loaded
        with pytest.raises(ConfigError):
            save_model(small_net(seed), StftConfig(), names, tmp_path / "m.cry")
        assert list(tmp_path.iterdir()) == []

    def test_not_a_model(self, tmp_path):
        junk = tmp_path / "junk.cry"
        junk.write_bytes(b"RIFF" + b"\x00" * 40)
        with pytest.raises(NotAModelError):
            load_model(junk)
        short = tmp_path / "short.cry"
        short.write_bytes(b"CR")
        with pytest.raises(NotAModelError):
            load_model(short)

    def test_future_version_rejected(self, saved, tmp_path):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        other = tmp_path / "v2.cry"
        other.write_bytes(bytes(data))
        with pytest.raises(ModelVersionError):
            load_model(other)

    def test_flipped_parameter_byte_detected(self, saved, tmp_path):
        _, path = saved
        data = bytearray(path.read_bytes())
        # flip a byte well inside the parameter blob
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "flip.cry"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError):
            load_model(bad)

    def test_truncation_detected(self, saved, tmp_path):
        _, path = saved
        data = path.read_bytes()
        bad = tmp_path / "trunc.cry"
        bad.write_bytes(data[:-100])
        with pytest.raises(CorruptModelError):
            load_model(bad)

    def test_file_shrinking_after_fstat_detected(self, saved, tmp_path, monkeypatch):
        # the size check passes on the full length, then the reads come up short
        _, path = saved
        data = path.read_bytes()
        bad = tmp_path / "shrinks.cry"
        bad.write_bytes(data)
        real_fstat = os.fstat

        def fstat_then_truncate(fd):
            st = real_fstat(fd)
            os.truncate(bad, len(data) - 100)
            return st

        monkeypatch.setattr(os, "fstat", fstat_then_truncate)
        with pytest.raises(CorruptModelError, match="truncated parameters"):
            load_model(bad)

    def test_garbled_header_detected(self, saved, tmp_path):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[13] = 0xFF  # inside the JSON header
        bad = tmp_path / "hdr.cry"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError):
            load_model(bad)


def _set(path, value):
    """Header mutation: set the field at a key path."""
    def mutate(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return mutate


def _drop(path):
    """Header mutation: delete the field at a key path."""
    def mutate(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return header
    return mutate


def _leaf_paths(node, prefix=()):
    """Key paths of every value in a nested header that is not an object."""
    if not isinstance(node, dict):
        return [prefix]
    return [path for key, value in node.items() for path in _leaf_paths(value, prefix + (key,))]


# the stft object of headers written while the STFT was configurable;
# load_model refuses it, as any field save_model does not write
OLDER_STFT = {"frame_length": 255, "frame_step": 128, "fft_length": 256, "window": "hann"}


# the architecture object of headers written while the layout was
# configurable, refused likewise
OLDER_ARCH = {"resize": [32, 32], "conv_filters": [32, 64], "dense_units": 128}


def _older_stft(**changes):
    """Header mutation: write an older stft object with some fields changed."""
    return _set(["stft"], {**OLDER_STFT, **changes})


def _older_arch(**changes):
    """Header mutation: write an older architecture object with some fields changed."""
    return _set(["architecture"], {**OLDER_ARCH, **changes})


def _huge_fft(header):
    # plus an input_shape as wide as that fft's image, as older headers
    # carry
    header["stft"] = {**OLDER_STFT, "fft_length": 2 ** 18}
    header["architecture"] = {**OLDER_ARCH, "input_shape": [124, 2 ** 17 + 1, 1]}
    return header


HEADER_MUTATIONS = {
    "empty object": lambda h: {},
    "empty list": lambda h: [],
    "architecture not an object": _set(["architecture"], []),
    "stft window as number": _older_stft(window=5),
    "stft not an object": _set(["stft"], [255, 128]),
    "class_names as string": _set(["class_names"], "amchirpnoisetone"),
    "class_names count off": _set(["class_names"], ["am", "chirp", "noise"]),
    "norm_mean as string": _set(["norm_mean"], "0.1"),
    "seed as float": _set(["seed"], 1.5),
    "created as null": _set(["created"], None),
    "duplicate class names": _set(["class_names"], ["am", "am", "noise", "tone"]),
    # well-typed, but rejected by param_shapes / the fixed STFT / Normalize
    "one class": _set(["class_names"], ["am"]),
    "negative variance": _set(["norm_variance"], -1.0),
    "NaN variance": _set(["norm_variance"], float("nan")),
    "Infinity variance": _set(["norm_variance"], float("inf")),
    "NaN mean": _set(["norm_mean"], float("nan")),
    "-Infinity mean": _set(["norm_mean"], float("-inf")),
    "fft not a power of two": _older_stft(fft_length=300),
    # older headers store the STFT and the layout; neither loads
    "fft 512 for frame 255": _older_stft(fft_length=512),
    "rectangular window": _older_stft(window="rectangular"),
    "hop 64": _set(["stft"], {"frame_length": 255, "frame_step": 64}),
    "resize 33x33": _older_arch(resize=[33, 33]),
    "conv filters 16, 32": _older_arch(conv_filters=[16, 32]),
    "dense_units 1024": _older_arch(dense_units=1024),
    # JSON integers beyond float range
    "mean 10**400": _set(["norm_mean"], 10 ** 400),
    "variance 10**400": _set(["norm_variance"], 10 ** 400),
    "frame longer than a clip": _set(["stft"], {"frame_length": 20000, "frame_step": 128,
                                               "fft_length": 32768, "window": "hann"}),
    "fft_length 2^18 and input as wide": _huge_fft,
}


class TestHeaderValidation:
    @pytest.mark.parametrize("name", sorted(HEADER_MUTATIONS))
    def test_bad_header_is_corrupt_model(self, saved, tmp_path, name):
        _, path = saved
        header = HEADER_MUTATIONS[name](read_model_header(path))
        bad = rewrite_model_header(path, tmp_path / "bad.cry", header)
        with pytest.raises(CorruptModelError):
            load_model(bad)

    def test_unchanged_header_still_loads(self, saved, tmp_path):
        net, path = saved
        same = rewrite_model_header(path, tmp_path / "same.cry", read_model_header(path))
        loaded = load_model(same)
        for a, b in zip(net.parameters(), loaded.network.parameters()):
            assert np.array_equal(a, b)

    def test_oversized_architecture_rejected_before_allocating(self, saved, tmp_path):
        # an older header claims an 8x wider dense layer than the stored parameters
        _, path = saved
        header = _older_arch(dense_units=1024)(read_model_header(path))
        bad = rewrite_model_header(path, tmp_path / "wide.cry", header)
        valid_peak, bad_peak = _load_peaks(path, bad)
        assert bad_peak < valid_peak

    @pytest.mark.parametrize("changes", [{"resize": [33, 33]}, {"dense_units": 1024}],
                             ids=["resize", "dense_units"])
    def test_other_architecture_fails_before_building(self, saved, tmp_path, monkeypatch,
                                                      changes):
        _, path = saved
        header = _older_arch(**changes)(read_model_header(path))
        bad = rewrite_model_header(path, tmp_path / "other.cry", header)
        built = []
        monkeypatch.setattr(infer_alert, "build_network", lambda *a, **k: built.append(a))
        with pytest.raises(CorruptModelError, match="unknown header field architecture;"):
            load_model(bad)
        assert built == []

    def test_parent_format_stft_loads_bitwise(self, saved, tmp_path):
        # the STFT older files stored is the fixed one; files in the
        # format that stopped storing it load and predict bitwise
        net, path = saved
        assert (FRAME_LENGTH, FRAME_STEP, FFT_LENGTH) == tuple(
            OLDER_STFT[key] for key in ("frame_length", "frame_step", "fft_length"))
        header = read_model_header(path)
        assert "stft" not in header
        loaded = load_model(rewrite_model_header(path, tmp_path / "same.cry", header))
        assert loaded.stft_config == StftConfig()
        for a, b in zip(net.parameters(), loaded.network.parameters(), strict=True):
            assert a.tobytes() == b.tobytes()
        clip = AudioClip(np.random.default_rng(8).uniform(-1, 1, 16000), 16000)
        assert (predict(loaded.network, loaded.stft_config, clip, NAMES)
                == predict(net, StftConfig(), clip, NAMES))

    def test_frame_and_hop_stft_loads_bitwise(self, saved, tmp_path):
        # files written while only the frame and the hop were settable
        # stored 255 and 128, the fixed values; a loaded model frames
        # clips of either rate as the saved network does
        net, path = saved
        assert (FRAME_LENGTH, FRAME_STEP) == (255, 128)
        loaded = load_model(path)
        rng = np.random.default_rng(8)
        for rate in (16000, 48000):
            clip = AudioClip(rng.uniform(-1, 1, rate), rate)
            assert (predict(loaded.network, loaded.stft_config, clip, NAMES)
                    == predict(net, StftConfig(), clip, NAMES))

    def test_every_saved_field_is_required(self, saved, tmp_path):
        # a field load_model can do without is one it could derive, so
        # save_model should not write it
        _, path = saved
        leaves = _leaf_paths(read_model_header(path))
        assert sorted(leaves) == sorted(
            (key,) for key in ("class_names", "norm_mean", "norm_variance", "seed", "created"))
        for leaf in leaves:
            header = _drop(list(leaf))(read_model_header(path))
            bad = rewrite_model_header(path, tmp_path / "drop.cry", header)
            with pytest.raises(CorruptModelError):
                load_model(bad)

    def test_oversized_fft_length_rejected_before_allocating(self, saved, tmp_path):
        # the DFT basis and the STFT image would grow with fft_length, so
        # an older header naming another one must fail before any allocation
        _, path = saved
        bad = rewrite_model_header(path, tmp_path / "fft.cry",
                                   _huge_fft(read_model_header(path)))
        valid_peak, bad_peak = _load_peaks(path, bad)
        assert bad_peak < valid_peak


def _load_peaks(valid, bad):
    """tracemalloc peaks of loading `valid` and of failing to load `bad`."""
    tracemalloc.start()
    try:
        load_model(valid)
        valid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CorruptModelError):
            load_model(bad)
        bad_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return valid_peak, bad_peak


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    """A default three-class model file, as bytes."""
    path = tmp_path_factory.mktemp("fuzz_model") / "m.cry"
    save_model(build_network(3, seed=33), StftConfig(), ["a", "b", "c"], path, timestamp=0.0)
    return path.read_bytes(), path.with_name("mutated.cry")


class TestModelFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_file_loads_or_raises_model_file_error(self, model_bytes, data):
        # each edit lands in one of the header, the first KiB of the 6.5 MB
        # blob and the CRC, so the header's share of edits stays what it was
        # when the fuzz model was 629 bytes (about 41% of Hypothesis' draws)
        base, target = model_bytes
        header_end = 12 + struct.unpack_from("<I", base, 8)[0]
        positions = st.one_of(st.integers(0, header_end - 1),
                              st.integers(header_end, header_end + 1023),
                              st.integers(len(base) - 4, len(base) - 1))
        target.write_bytes(data.draw(mutated(base, positions)))
        try:
            loaded = load_model(target)
        except ModelFileError:
            return
        assert len(loaded.class_names) == loaded.network.class_count


class TestPredict:
    def test_probabilities_well_formed(self, saved):
        net, _ = saved
        rng = np.random.default_rng(0)
        for samples in (np.zeros(16000), np.ones(16000) * 0.5,
                        rng.uniform(-1, 1, 16000)):
            clip = AudioClip(samples, 16000)
            probs = predict(net, StftConfig(), clip, NAMES)
            assert list(probs) == NAMES
            vals = np.array(list(probs.values()))
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0)
            assert abs(vals.sum() - 1.0) < 1e-9

    def test_48k_input_resampled(self, saved):
        net, _ = saved
        t = np.arange(48000) / 48000.0
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 48000)
        probs = predict(net, StftConfig(), clip, NAMES)
        assert abs(sum(probs.values()) - 1.0) < 1e-9

    def test_short_clip_rejected(self, saved):
        net, _ = saved
        with pytest.raises(TooShortError):
            predict(net, StftConfig(), AudioClip(np.zeros(254), 16000), NAMES)

    def test_non_integer_ratio_rejected(self, saved):
        net, _ = saved
        with pytest.raises(UnsupportedRatioError):
            predict(net, StftConfig(), AudioClip(np.zeros(44100), 44100), NAMES)

    def test_short_but_padded_path(self, saved):
        # one frame of audio is enough; the rest is pad
        net, _ = saved
        probs = predict(net, StftConfig(), AudioClip(np.zeros(255), 16000), NAMES)
        assert abs(sum(probs.values()) - 1.0) < 1e-9

    def test_short_48k_clip_rejected_by_duration(self, saved):
        # 764 samples at 48 kHz last less than one 255-sample frame at 16 kHz
        net, _ = saved
        with pytest.raises(TooShortError):
            predict(net, StftConfig(), AudioClip(np.zeros(764), 48000), NAMES)

    def test_one_frame_of_48k_audio_accepted(self, saved):
        net, _ = saved
        probs = predict(net, StftConfig(), AudioClip(np.zeros(765), 48000), NAMES)
        assert abs(sum(probs.values()) - 1.0) < 1e-9

    def test_same_image_as_training(self, tmp_path):
        # one file per class, so a file's label finds its training image
        rng = np.random.default_rng(8)
        files = []
        for name, rate, channels, frames in [("a", 16000, 1, 12000), ("b", 48000, 1, 60000),
                                             ("c", 48000, 2, 40000)]:
            (tmp_path / name).mkdir()
            path = tmp_path / name / "x.wav"
            ints = rng.integers(-20000, 20000, frames * channels)
            path.write_bytes(make_wav_bytes(ints, rate=rate, channels=channels))
            files.append(path)
        dataset = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0))
        images, labels = split_arrays(dataset, "train")
        net = build_network(3, seed=3)
        net.set_norm_stats(0.12, 0.45)
        for label, path in enumerate(files):
            image = images[list(labels).index(label)]
            want = softmax(net.forward(image[None])[0][0].astype(np.float64))
            probs = predict(net, StftConfig(), load_wav(path), dataset.class_names)
            assert np.array_equal(list(probs.values()), want)


class TestDecideAlert:
    def test_distress_above_threshold_fires(self):
        probs = {"crying": 0.97, "screaming": 0.01, "silence": 0.01, "noise": 0.01}
        event = decide_alert(probs, ("crying", "screaming"), 0.9,
                             source="a.wav", now=1_700_000_000.0)
        assert event.alert is True
        assert event.predicted_label == "crying"
        assert event.threshold == 0.9
        assert event.timestamp == "2023-11-14T22:13:20Z"

    def test_non_alert_class_never_fires(self):
        probs = {"crying": 0.005, "laughing": 0.99, "silence": 0.0, "noise": 0.005}
        event = decide_alert(probs, ("crying",), 0.5, now=0.0)
        assert event.alert is False
        assert event.predicted_label == "laughing"

    def test_below_threshold_does_not_fire(self):
        probs = {"crying": 0.6, "laughing": 0.4}
        event = decide_alert(probs, ("crying",), 0.7, now=0.0)
        assert event.alert is False
        assert event.predicted_label == "crying"

    def test_threshold_boundary_inclusive(self):
        probs = {"crying": 0.7, "laughing": 0.3}
        assert decide_alert(probs, ("crying",), 0.7, now=0.0).alert is True

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = rng.uniform(0, 1, 3)
            raw /= raw.sum()
            probs = {"a": raw[0], "b": raw[1], "c": raw[2]}
            fired = [decide_alert(probs, ("a", "b"), thr, now=0.0).alert
                     for thr in (0.2, 0.5, 0.9)]
            # once an alert stops firing at a low threshold it cannot
            # come back at a higher one
            for lo, hi in zip(fired, fired[1:]):
                assert lo or not hi

    def test_tie_goes_to_earliest_class(self):
        probs = {"b": 0.5, "a": 0.5}
        event = decide_alert(probs, ("b",), 0.5, now=0.0)
        assert event.predicted_label == "b"
        assert event.alert is True

    def test_threshold_validated(self):
        for thr in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                decide_alert({"a": 1.0}, ("a",), thr)

    def test_unknown_alert_class_rejected(self):
        with pytest.raises(ConfigError):
            decide_alert({"a": 1.0}, ("ghost",), 0.5)


class TestAlertEvent:
    def test_json_single_line_fixed_order(self):
        event = AlertEvent("2025-01-01T00:00:00Z", "x.wav", "tone",
                           {"tone": 0.8, "noise": 0.2}, True, 0.5)
        line = event.to_json()
        assert "\n" not in line
        assert ": " not in line  # minified
        parsed = json.loads(line)
        assert list(parsed) == ["timestamp", "source", "predicted_label",
                                "probabilities", "alert", "threshold"]
        assert parsed["alert"] is True
        assert list(parsed["probabilities"]) == ["tone", "noise"]

    def test_json_bytes_match_asdict(self):
        # the line is json.dumps of dataclasses.asdict, byte for byte
        names = ["tone", "noise", "am", "chirp", "ünïcode"]
        for k in range(1, 6):
            probs = {name: 1.0 / (i + 3) for i, name in enumerate(names[:k])}
            for source in ("x.wav", "/tmp/bébé ☃/cry.wav"):
                event = decide_alert(probs, names[:1], 0.25, source=source, now=1.5)
                want = json.dumps(dataclasses.asdict(event), separators=(",", ":"))
                assert event.to_json() == want


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    ok_status = 200
    hits = None
    heads = None
    gets = None

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).hits.append(body)
        type(self).heads.append((self.path, self.headers["Content-Type"]))
        if len(type(self).hits) <= type(self).fail_first:
            self.send_response(type(self).fail_status)
            if 300 <= type(self).fail_status < 400:
                self.send_header("Location", "/moved")
        else:
            self.send_response(type(self).ok_status)
        self.end_headers()

    def do_GET(self):
        type(self).gets.append(self.path)
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    servers = []

    def start(fail_first, fail_status=500, ok_status=200, tls=None):
        """tls, a (certificate, key) pair of files, serves https."""
        handler = type("Handler", (_CountingHandler,),
                       {"fail_first": fail_first, "fail_status": fail_status,
                        "ok_status": ok_status, "hits": [], "heads": [], "gets": []})
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            server.socket = context.wrap_socket(server.socket, server_side=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        scheme = "https" if tls else "http"
        return f"{scheme}://127.0.0.1:{server.server_address[1]}/", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def self_signed(tmp_path):
    """A certificate for IP 127.0.0.1 that no system store trusts, and its key."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                    "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)],
                   check=True, capture_output=True, timeout=60)
    return cert, key


class TestSinks:
    def test_stdout_sink_writes_line(self):
        buf = io.StringIO()
        StdoutSink(buf).send('{"alert":true}')
        assert buf.getvalue() == '{"alert":true}\n'

    @pytest.mark.parametrize("status", [200, 204])
    def test_http_sink_posts_body(self, http_server, status):
        url, handler = http_server(fail_first=0, ok_status=status)
        HttpSink(url + "hook?x=1").send('{"k":1}')
        assert handler.hits == [b'{"k":1}']
        assert handler.heads == [("/hook?x=1", "application/json")]

    def test_http_sink_retries_once(self, http_server):
        url, handler = http_server(fail_first=1)
        HttpSink(url).send('{"k":2}')
        assert len(handler.hits) == 2

    def test_http_sink_gives_up_after_retry(self, http_server):
        url, handler = http_server(fail_first=10)
        with pytest.raises(Exception):
            HttpSink(url).send('{"k":3}')
        assert len(handler.hits) == 2

    def test_http_sink_does_not_retry_client_error(self, http_server):
        url, handler = http_server(fail_first=10, fail_status=400)
        with pytest.raises(urllib.error.HTTPError):
            HttpSink(url).send('{"k":4}')
        assert len(handler.hits) == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307])
    def test_http_sink_refuses_a_redirect(self, http_server, status, caplog):
        # following a 301, 302 or 303 re-sends the alert as a bodyless GET
        # to the new location, whose 200 would count as delivered; every
        # 3xx fails the send, unretried, like a 4xx
        url, handler = http_server(fail_first=10, fail_status=status)
        with pytest.raises(urllib.error.HTTPError) as info:
            HttpSink(url).send('{"k":8}')
        assert info.value.code == status
        assert handler.hits == [b'{"k":8}'] and handler.gets == []
        event = decide_alert({"tone": 0.9}, ["tone"], 0.5, source="x.wav", now=0.0)
        with caplog.at_level(logging.WARNING, logger="cryalert"):
            emit_alert(event, [HttpSink(url)])
        assert "HttpSink failed" in caplog.text and str(status) in caplog.text
        assert len(handler.hits) == 2 and handler.gets == []

    def test_http_sink_one_timeout_for_both_attempts(self):
        # a host that takes the connection and never answers: the retry
        # gets only what is left of the one timeout, none here
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            url = f"http://127.0.0.1:{server.getsockname()[1]}/"
            start = time.monotonic()
            with pytest.raises(OSError):
                HttpSink(url, timeout=1.0).send('{"k":5}')
            elapsed = time.monotonic() - start
        assert elapsed < 1.6

    def test_http_sink_retries_a_refused_connection_once(self, monkeypatch):
        # a port bound and closed again refuses at once: both attempts are
        # made, well within the timeout
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{closed.getsockname()[1]}/"
        attempts = []
        connect = socket.create_connection

        def counting(*args, **kwargs):
            attempts.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        start = time.monotonic()
        with pytest.raises(OSError):
            HttpSink(url, timeout=1.0).send('{"k":9}')
        assert time.monotonic() - start < 1.0
        assert len(attempts) == 2

    def test_http_sink_does_not_await_the_body(self):
        # the status line and headers say delivered; a body that never comes
        # must not hold the send
        done = threading.Event()

        def stall(server):
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n")
                done.wait(5.0)

        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            thread = threading.Thread(target=stall, args=(server,), daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.getsockname()[1]}/"
            start = time.monotonic()
            try:
                HttpSink(url, timeout=1.0).send('{"k":10}')
                elapsed = time.monotonic() - start
            finally:
                done.set()
                thread.join(5.0)
        assert not thread.is_alive()
        assert elapsed < 0.5

    def test_https_sink_posts_to_a_trusted_host(self, http_server, self_signed, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(self_signed[0]))
        url, handler = http_server(fail_first=0, tls=self_signed)
        HttpSink(url + "hook?x=1").send('{"k":11}')
        assert handler.hits == [b'{"k":11}']
        assert handler.heads == [("/hook?x=1", "application/json")]

    def test_https_sink_refuses_an_untrusted_certificate(self, http_server, self_signed):
        url, handler = http_server(fail_first=0, tls=self_signed)
        with pytest.raises(OSError, match="CERTIFICATE_VERIFY_FAILED"):
            HttpSink(url).send('{"k":12}')
        assert handler.hits == []

    def test_http_sink_one_deadline_for_a_trickled_reply(self):
        # a host that answers one byte every 0.2 s keeps each read under the
        # timeout; the 38-byte reply would take 7.6 s, the send must not
        reply = b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"
        assert len(reply) == 38
        done = threading.Event()

        def trickle(server):
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                for byte in reply:
                    if done.wait(0.2):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:  # the client has shut the connection down
                        return

        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            thread = threading.Thread(target=trickle, args=(server,), daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.getsockname()[1]}/"
            start = time.monotonic()
            try:
                with pytest.raises(TimeoutError, match="no complete reply within 1 s"):
                    HttpSink(url, timeout=1.0).send('{"k":6}')
                elapsed = time.monotonic() - start
            finally:
                done.set()
                thread.join(5.0)
        assert not thread.is_alive()
        assert elapsed < 1.6

    def test_http_sink_deadline_timer_does_not_outlive_a_send(self, http_server):
        url, handler = http_server(fail_first=0)
        before = threading.active_count()
        HttpSink(url, timeout=30.0).send('{"k":7}')
        assert handler.hits == [b'{"k":7}']
        # the cancelled 30 s timer and the server's request thread end at once
        until = time.monotonic() + 2.0
        while threading.active_count() > before and time.monotonic() < until:
            time.sleep(0.01)
        assert threading.active_count() <= before

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "notaurl", "ftp://host/x",
                                     "http://", "https:///path", "http://[::1/",
                                     "http://host:abc/", "http://host:99999/", "http://host:0/",
                                     "http://user:pw@127.0.0.1:8080/hook", "https://user@host/",
                                     "http://:pw@host/", "ftp://user:pw@host/",
                                     "http://user:pw@host:99999/", "http://user:pw@[::1/"])
    def test_http_sink_needs_http_url_with_host(self, url):
        # user info is refused too, since http.client would post without
        # it, and the error never echoes a password
        with pytest.raises(ConfigError) as info:
            HttpSink(url)
        assert "pw" not in str(info.value)

    def test_http_sink_keeps_an_at_sign_after_the_host(self):
        assert HttpSink("http://host/hook?to=a@b")._target == "/hook?to=a@b"

    def test_http_sink_accepts_https(self):
        assert HttpSink("https://alerts.example/hook").url == "https://alerts.example/hook"

    def test_command_sink_pipes_stdin(self, tmp_path):
        out = tmp_path / "captured.txt"
        CommandSink(f"sh -c 'cat > {out}'").send('{"alert":false}')
        assert out.read_text() == '{"alert":false}\n'

    def test_command_sink_empty_rejected(self):
        with pytest.raises(ConfigError):
            CommandSink("   ")

    def test_emit_requires_sinks(self):
        event = AlertEvent("t", "s", "l", {}, False, 0.5)
        with pytest.raises(ConfigError):
            emit_alert(event, [])

    def test_emit_survives_partial_failure(self, caplog):
        event = AlertEvent("t", "s", "l", {}, False, 0.5)
        good = io.StringIO()

        class Boom:
            def send(self, line):
                raise RuntimeError("sink exploded")

        with caplog.at_level(logging.WARNING, logger="cryalert"):
            emit_alert(event, [Boom(), StdoutSink(good)])
        assert good.getvalue().endswith("\n")
        assert any("failed" in r.message for r in caplog.records)

    def test_emit_all_failed_logs_aggregate(self, caplog):
        event = AlertEvent("t", "src.wav", "l", {}, False, 0.5)

        class Boom:
            def send(self, line):
                raise RuntimeError("nope")

        with caplog.at_level(logging.WARNING, logger="cryalert"):
            emit_alert(event, [Boom(), Boom()])
        assert any("all 2" in r.message for r in caplog.records)
