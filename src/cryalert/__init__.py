"""Audio distress classification: WAV in, spectrogram, CNN, alert out."""

from .errors import CryalertError
from .infer_alert import (
    AlertEvent,
    LoadedModel,
    decide_alert,
    emit_alert,
    load_model,
    predict,
    save_model,
)
from .optim_train import (
    AdamState,
    ConfusionMatrix,
    TrainConfig,
    TrainReport,
    adam_step,
    evaluate,
    fit_normalization,
    train,
)
from .spectro import StftConfig, clip_images, export_spectrogram, stft_magnitude
from .synth import generate_corpus, synth_clip
from .tensor_nn import Network, build_network
from .wav_io import (
    AudioClip,
    LabeledDataset,
    canonical_clip,
    load_dataset,
    load_wav,
    parse_wav,
    resample,
    write_wav,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlertEvent",
    "AudioClip",
    "ConfusionMatrix",
    "CryalertError",
    "LabeledDataset",
    "LoadedModel",
    "Network",
    "StftConfig",
    "TrainConfig",
    "TrainReport",
    "adam_step",
    "build_network",
    "canonical_clip",
    "clip_images",
    "decide_alert",
    "emit_alert",
    "evaluate",
    "export_spectrogram",
    "fit_normalization",
    "generate_corpus",
    "load_dataset",
    "load_model",
    "load_wav",
    "parse_wav",
    "predict",
    "resample",
    "save_model",
    "stft_magnitude",
    "synth_clip",
    "train",
    "write_wav",
]
