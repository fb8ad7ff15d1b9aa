from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryalert.errors import ConfigError, ShapeError, TooShortError
from cryalert.spectro import (
    FFT_LENGTH,
    FRAME_LENGTH,
    FRAME_STEP,
    NUM_BINS,
    NUM_FRAMES,
    StftConfig,
    _dft_basis,
    _interp_matrix,
    _kept_cells,
    export_spectrogram,
    stft_magnitude,
)
from cryalert.tensor_nn import RESIZE
from cryalert.wav_io import AudioClip

from conftest import dft_direct, rel_error


class TestWindow:
    # the basis's bin-0 column is w[t] cos(0) = w[t]: the window itself
    def test_hann_periodic_form(self):
        w = _dft_basis()[:, 0]
        k = np.arange(FRAME_LENGTH)
        assert np.array_equal(w, 0.5 - 0.5 * np.cos(2 * np.pi * k / FRAME_LENGTH))
        assert w[0] == 0.0

    def test_bad_length(self):
        # the frame is fixed: no length, good or bad, can be set
        for n in (0, -1, FRAME_LENGTH):
            with pytest.raises(TypeError):
                StftConfig(frame_length=n)


class TestBasisCache:
    def test_cached_basis_is_fresh_values_and_read_only(self):
        for _ in range(2):
            basis = _dft_basis()
            fresh = _dft_basis.__wrapped__()
            assert basis is _dft_basis()
            assert basis.shape == (FRAME_LENGTH, 2 * NUM_BINS)
            assert np.array_equal(basis, fresh)
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0

    def test_stft_repeat_calls_with_mixed_lengths_agree(self):
        # signals of several lengths share the one cached basis
        rng = np.random.default_rng(32)
        signals = [rng.uniform(-1, 1, n) for n in (4000, 255, 16000)]
        first = [stft_magnitude(x) for x in signals]
        for _ in range(2):
            for x, want in zip(reversed(signals), reversed(first)):
                assert np.array_equal(stft_magnitude(x), want)


class TestKeptCells:
    def test_kept_cells_are_the_nonzero_resize_columns(self):
        for kept, n, size in zip(_kept_cells(), (NUM_FRAMES, NUM_BINS), RESIZE):
            mat = _interp_matrix(n, size)
            assert kept == tuple(k for k in range(n) if np.any(mat[:, k] != 0))
            assert len(kept) == 64
        assert _kept_cells() is _kept_cells()

    def test_kept_basis_is_a_read_only_slice_of_the_full_one(self):
        bins = _kept_cells()[1]
        basis = _dft_basis(bins)
        assert basis is _dft_basis(bins)
        assert basis.shape == (FRAME_LENGTH, 128)
        assert np.array_equal(basis, _dft_basis()[:, [*bins, *(NUM_BINS + k for k in bins)]])
        assert not basis.flags.writeable

    def test_kept_resize_columns_are_cached_read_only_and_c_contiguous(self):
        # the bare indexing result is F-ordered, and with it the resize's
        # products round apart from those of the full-width matrices
        for kept, n, size in zip(_kept_cells(), (NUM_FRAMES, NUM_BINS), RESIZE):
            for _ in range(2):
                mat = _interp_matrix(n, size, np.float32, kept)
                assert mat is _interp_matrix(n, size, np.float32, kept)
                assert mat.shape == (size, 64) and mat.dtype == np.float32
                fresh = _interp_matrix.__wrapped__(n, size, np.float32)
                assert np.array_equal(mat, fresh[:, list(kept)])
                assert mat.flags.c_contiguous and not mat.flags.writeable
                with pytest.raises(ValueError):
                    mat[0, 0] = 1.0

    def test_cells_are_those_of_the_full_spectrogram(self):
        # clips with noise in every bin: float32 cells round bit for bit as
        # the full product's; float64 ones agree to rounding, since BLAS may
        # sum a column of the full product in its edge kernel
        rng = np.random.default_rng(33)
        frames, bins = _kept_cells()
        for _ in range(20):
            x = (rng.uniform(-1, 1, 16000) * rng.uniform(0.01, 1)).astype(np.float32)
            cells = stft_magnitude(x, cells=(frames, bins))
            assert cells.shape == (64, 64) and cells.dtype == np.float32
            assert np.array_equal(cells, stft_magnitude(x)[np.ix_(frames, bins)])
            wide = stft_magnitude(x, np.float64, cells=(frames, bins))
            assert rel_error(wide, stft_magnitude(x, np.float64)[np.ix_(frames, bins)]) < 1e-14


class TestStftConfig:
    def test_defaults(self):
        assert (FRAME_LENGTH, FRAME_STEP, FFT_LENGTH, NUM_BINS) == (255, 128, 256, 129)

    def test_fft_length_is_derived(self):
        # nothing is settable; fft_length is the smallest power of two
        # that holds a frame, as in tf.signal.stft
        assert fields(StftConfig) == ()
        with pytest.raises(TypeError):
            StftConfig(255, 128)
        with pytest.raises(TypeError):
            StftConfig(fft_length=512)
        assert FFT_LENGTH == 1 << (FRAME_LENGTH - 1).bit_length()
        assert NUM_BINS == FFT_LENGTH // 2 + 1

    def test_fft_shorter_than_frame(self):
        # never shorter than one frame and never twice as long
        assert FFT_LENGTH // 2 < FRAME_LENGTH <= FFT_LENGTH

    def test_fft_not_power_of_two(self):
        assert FFT_LENGTH & (FFT_LENGTH - 1) == 0

    def test_step_out_of_range(self):
        # a hop within one frame leaves no sample out
        assert 0 < FRAME_STEP <= FRAME_LENGTH


class TestStft:
    def test_standard_clip_shape(self):
        clip = AudioClip(np.zeros(16000), 16000)
        spec = stft_magnitude(clip)
        assert spec.shape == (124, 129)
        assert spec.dtype == np.float32

    def test_zero_signal_zero_spectrogram(self):
        spec = stft_magnitude(np.zeros(16000))
        assert np.array_equal(spec, np.zeros((124, 129), dtype=np.float32))

    def test_single_frame_at_exact_length(self):
        assert stft_magnitude(np.zeros(255)).shape[0] == 1

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            stft_magnitude(np.zeros(254))

    def test_sine_lands_in_expected_bin(self):
        # 1000 Hz at 16 kHz with 62.5 Hz bins -> bin 16
        t = np.arange(16000) / 16000
        spec = stft_magnitude(0.5 * np.sin(2 * np.pi * 1000 * t), dtype=np.float64)
        interior = spec[5:-5]
        assert np.all(interior.argmax(axis=1) == 16)

    def test_matches_windowed_dft_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 2048)
        spec = stft_magnitude(x, dtype=np.float64)
        k = np.arange(FRAME_LENGTH)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * k / FRAME_LENGTH)
        for frame_idx in range(len(spec)):
            start = frame_idx * FRAME_STEP
            frame = np.zeros(FFT_LENGTH)
            frame[:FRAME_LENGTH] = x[start:start + FRAME_LENGTH] * window
            expected = np.abs(dft_direct(frame))[:NUM_BINS]
            assert rel_error(spec[frame_idx], expected) < 1e-9

    def test_float32_matches_hypot_oracle(self):
        # the magnitude is sqrt(re^2 + im^2) of the basis product; in
        # float32 it must round exactly as np.hypot's float64 result does
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform(-1, 1, 16000) * rng.uniform(0, 1)
            frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LENGTH)[::FRAME_STEP]
            spectrum = frames @ _dft_basis()
            re, im = spectrum[:, :NUM_BINS], spectrum[:, NUM_BINS:]
            assert np.array_equal(stft_magnitude(x), np.hypot(re, im).astype(np.float32))

    def test_scaling_linearity(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-0.4, 0.4, 4000)
        a = stft_magnitude(x, dtype=np.float64)
        b = stft_magnitude(2.0 * x, dtype=np.float64)
        assert rel_error(b, 2.0 * a) < 1e-12

    def test_accepts_audio_clip_and_array(self):
        samples = np.zeros(300)
        via_clip = stft_magnitude(AudioClip(samples, 16000))
        via_array = stft_magnitude(samples)
        assert np.array_equal(via_clip, via_array)

    @pytest.mark.parametrize("view", ["every-other", "reversed", "column"])
    def test_strided_input_equals_contiguous_copy(self, view):
        # the frames are one strided view of the input, whatever its stride
        rng = np.random.default_rng(14)
        for dtype in (np.float64, np.float32):
            x = rng.uniform(-1, 1, 32000).astype(dtype)
            samples = {"every-other": x[::2], "reversed": x[::-1],
                       "column": x.reshape(-1, 2)[:, 1]}[view]
            assert not samples.flags.c_contiguous
            dense = np.ascontiguousarray(samples)
            assert np.array_equal(stft_magnitude(samples), stft_magnitude(dense))
            assert np.array_equal(stft_magnitude(samples, cells=_kept_cells()),
                                  stft_magnitude(dense, cells=_kept_cells()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(255, 48000))
    def test_shape_law(self, n):
        spec = stft_magnitude(np.zeros(n))
        assert spec.shape == ((n - FRAME_LENGTH) // FRAME_STEP + 1, 129)


class TestExport:
    def test_csv_known_values(self, tmp_path):
        spec = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        path = tmp_path / "s.csv"
        export_spectrogram(spec, path, "csv")
        assert path.read_text() == "0,1\n2,3\n"

    def test_csv_round_trips_float32(self, tmp_path):
        rng = np.random.default_rng(21)
        spec = rng.uniform(0, 30, (6, 9)).astype(np.float32)
        path = tmp_path / "s.csv"
        export_spectrogram(spec, path, "csv")
        back = np.loadtxt(path, delimiter=",", dtype=np.float64).astype(np.float32)
        assert np.array_equal(back, spec)

    def test_pgm_header_and_size(self, tmp_path):
        spec = np.arange(124 * 129, dtype=np.float32).reshape(124, 129)
        path = tmp_path / "s.pgm"
        export_spectrogram(spec, path, "pgm")
        blob = path.read_bytes()
        header, pixels = blob.split(b"255\n", 1)
        assert header == b"P5\n129 124\n"
        assert len(pixels) == 124 * 129
        assert max(pixels) == 255 and min(pixels) == 0

    def test_pgm_constant_maps_to_zero(self, tmp_path):
        spec = np.full((4, 5), 7.0, dtype=np.float32)
        path = tmp_path / "s.pgm"
        export_spectrogram(spec, path, "pgm")
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert pixels == bytes(20)

    def test_pgm_time_runs_down_rows(self, tmp_path):
        # energy grows with the frame index, so pixel rows must brighten
        values = np.outer(np.arange(1, 9), np.ones(5)).astype(np.float32)
        path = tmp_path / "s.pgm"
        export_spectrogram(values, path, "pgm")
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], np.uint8)
        rows = pixels.reshape(8, 5)
        assert rows[0, 0] < rows[-1, 0]
        assert rows[-1, 0] == 255

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            export_spectrogram(np.zeros((2, 2)), tmp_path / "s.bmp", "bmp")

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_rank_other_than_two_rejected(self, tmp_path, shape):
        with pytest.raises(ShapeError):
            export_spectrogram(np.zeros(shape), tmp_path / "s.csv", "csv")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            export_spectrogram(np.zeros((2, 2)),
                               tmp_path / "no" / "such" / "dir" / "s.csv", "csv")
