"""Minimal neural building blocks on numpy kernels."""

from __future__ import annotations

from . import kernels
from .kernels import ACTIVATIONS
from .layers import (
    AdamOptimizer,
    DenseNet,
    LstmCell,
    SgdOptimizer,
    glorot_uniform,
    gradient_check,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)

# Recorded by the benchmark harness in every run record.
BACKEND = "py"

__all__ = [
    "ACTIVATIONS",
    "AdamOptimizer",
    "BACKEND",
    "DenseNet",
    "LstmCell",
    "SgdOptimizer",
    "glorot_uniform",
    "gradient_check",
    "kernels",
    "load_checkpoint",
    "make_optimizer",
    "save_checkpoint",
]
