"""Hierarchical vision transformer with learnable meta tokens.

A small set of learnable meta tokens sparsely represents the dense image
token grid. Early stages exchange information between the two streams
through dual cross-attention (linear in the image token count); late
stages run standard self-attention per stream. The package bundles the
numpy-backed tensor/autodiff core, the model, an analytic cost profiler,
micro-benchmarks, a toy trainer, and a command line.
"""

from .attention import MhaParams, entropy_scale, multi_head_attention
from .bench import BenchResult, bench_block_pair, bench_model, speedup
from .blocks import CABlock, Cpe, DCABlock, Downsample, ImageStem, MetaStem, SABlock, TokenGrid
from .checkpoint import load_checkpoint, save_checkpoint
from .complexity import ComplexityReport, count_block, count_model, emit_report
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    InputError,
    MetavitError,
    TrainingDiverged,
    UsageError,
)
from .model import Model, VariantSpec, build_variant, export_attention_maps, variant
from .tensor import Graph, MacCounter, Tensor, backward, no_grad
from .trainer import SynthDataset, TrainConfig, evaluate, make_synth, train_toy

__version__ = "0.1.0"

__all__ = [
    "MhaParams", "entropy_scale", "multi_head_attention",
    "BenchResult", "bench_block_pair", "bench_model", "speedup",
    "CABlock", "Cpe", "DCABlock", "Downsample", "ImageStem", "MetaStem",
    "SABlock", "TokenGrid",
    "load_checkpoint", "save_checkpoint",
    "ComplexityReport", "count_block", "count_model", "emit_report",
    "ConfigError", "ContractError", "DimensionError", "FormatError",
    "InputError", "MetavitError", "TrainingDiverged", "UsageError",
    "Model", "VariantSpec", "build_variant", "export_attention_maps", "variant",
    "Graph", "MacCounter", "Tensor", "backward", "no_grad",
    "SynthDataset", "TrainConfig", "evaluate", "make_synth", "train_toy",
    "__version__",
]
