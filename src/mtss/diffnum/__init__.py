"""Reverse-mode autodiff core: tensors, tape, Adam, gradient checks, checkpoints."""

from mtss.diffnum.tape import (
    Tensor,
    Tape,
    ShapeMismatchError,
    TapeError,
    attend,
    grad_check,
    grad_check_params,
)
from mtss.diffnum.optim import Adam, AdamState, DivergenceError, adam_step
from mtss.diffnum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "TapeError",
    "attend",
    "grad_check",
    "grad_check_params",
    "Adam",
    "AdamState",
    "DivergenceError",
    "adam_step",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]
